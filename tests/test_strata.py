"""Stratifications induced by blowup towers, checked against hand expansions."""

from pathlib import Path

import pytest

from singpair.blowup import ResolutionTower, graph_ideal, proper_transform
from singpair.factor import coefficients_in
from singpair.ideals import Ideal
from singpair.polyring import PolynomialRing
from singpair.scenario import Workspace, parse_scenario
from singpair.strata import PRESETS, Stratification, split_components

CORPUS = Path(__file__).resolve().parents[1] / "src" / "singpair" / "corpus"
CONE = PolynomialRing(("x", "y", "z", "t"))


def cone_tower():
    tower = ResolutionTower.affine(CONE, (CONE.parse("x^2 - y^2 + t*z^2"),))
    tower.blow_up((CONE.var("x"), CONE.var("y"), CONE.var("z")))
    return tower


def same_variety(a: Ideal, b: Ideal) -> bool:
    return a.variety_contained_in(b) and b.variety_contained_in(a)


@pytest.mark.hashseed
class TestSplitComponents:
    def test_splits_a_product(self):
        ring = PolynomialRing(("x", "y"))
        parts = split_components(Ideal(ring, (ring.parse("x*y"),)))
        assert len(parts) == 2
        assert {str(p.gens[0]) for p in parts} == {"x", "y"}

    def test_drops_multiplicity(self):
        ring = PolynomialRing(("x", "y"))
        parts = split_components(Ideal(ring, (ring.parse("x^2*y"),)))
        assert len(parts) == 2

    def test_absorbs_contained_branches(self):
        ring = PolynomialRing(("x", "y"))
        parts = split_components(Ideal.parse(ring, "x*y; x"))
        assert len(parts) == 1
        assert same_variety(parts[0], Ideal(ring, (ring.var("x"),)))

    def test_keeps_one_piece_per_zero_set(self):
        # both branches, (x - y; x^3) and (y - x^2; x^3), are the origin
        ring = PolynomialRing(("x", "y"))
        parts = split_components(Ideal.parse(ring, "(x - y)*(y - x^2); x^3"))
        assert len(parts) == 1
        assert same_variety(parts[0], Ideal.parse(ring, "x; y"))


@pytest.mark.hashseed
class TestConeStratification:
    def test_coarse(self):
        strat = Stratification(cone_tower(), rules=("images",))
        assert strat.top == 3
        line = Ideal.parse(CONE, "x; y; z")
        for i in (1, 2):
            assert len(strat.level(i)) == 1
            assert same_variety(strat.level(i)[0], line)
        assert strat.level(3) == []

    def test_refined_adds_rank_drop_point(self):
        strat = Stratification(cone_tower(), rules=("images", "fibers"))
        assert len(strat.level(3)) == 1
        assert same_variety(strat.level(3)[0], Ideal.parse(CONE, "x; y; z; t"))
        # shallower levels still show only the line: the point is absorbed
        line = Ideal.parse(CONE, "x; y; z")
        assert len(strat.level(2)) == 1
        assert same_variety(strat.level(2)[0], line)

    def test_provenance_and_levels_out_of_range(self):
        strat = Stratification(cone_tower(), rules=("images", "fibers"))
        rules_used = {p.rule for p in strat.pieces}
        assert "seed" in rules_used and "fibers" in rules_used
        assert strat.level(0)[0] is not None
        assert strat.level(9) == []

    def test_unknown_rule_and_preset(self):
        with pytest.raises(ValueError):
            Stratification(cone_tower(), rules=("nope",))
        assert set(PRESETS) == {"curve_recipe", "fourfold_recipe"}


def smooth_plane_tower() -> ResolutionTower:
    """The plane blown up at the origin."""
    ring = PolynomialRing(("x", "y"))
    tower = ResolutionTower.affine(ring, ())
    tower.blow_up((ring.var("x"), ring.var("y")))
    return tower


def fourfold_cone_tower() -> ResolutionTower:
    """The quadric cone times a line, blown up along x = y = z."""
    ring = PolynomialRing(("x", "y", "z", "t", "w"))
    tower = ResolutionTower.affine(ring, (ring.parse("x^2 - y^2 + t*z^2"),))
    tower.blow_up((ring.var("x"), ring.var("y"), ring.var("z")))
    return tower


NODAL_CURVE = ("y^2 - x^3 - x^2", "w")


def nodal_curve_tower() -> ResolutionTower:
    """A^3 blown up at the origin, then along the nodal curve in w = 0."""
    ring = PolynomialRing(("x", "y", "w"))
    tower = ResolutionTower.affine(ring, ())
    tower.blow_up((ring.var("x"), ring.var("y"), ring.var("w")))
    tower.blow_up(tuple(ring.parse(g) for g in NODAL_CURVE))
    return tower


def projective_lines_tower() -> ResolutionTower:
    """The projective quadric cone blown up along the lines X = Y = Z = 0,
    X + Y = S = Z = 0 and X - Y = S = Z = 0."""
    ring = PolynomialRing(("S", "T", "X", "Y", "Z"))
    tower = ResolutionTower.projective(ring, (ring.parse("S*X^2 - S*Y^2 + T*Z^2"),))
    tower.blow_up((ring.var("X"), ring.var("Y"), ring.var("Z")))
    tower.blow_up((ring.parse("X + Y"), ring.var("S"), ring.var("Z")))
    tower.blow_up((ring.parse("X - Y"), ring.var("S"), ring.var("Z")))
    return tower


class TestSmoothPlane:
    def test_origin_enters_at_bottom(self):
        tower = smooth_plane_tower()
        ring = tower.input_ring
        strat = Stratification(tower, rules=("images",))
        assert strat.top == 2
        origin = Ideal.parse(ring, "x; y")
        for i in (1, 2):
            assert len(strat.level(i)) == 1
            assert same_variety(strat.level(i)[0], origin)


class TestFourfold:
    def test_rank_drop_curve_at_level_three(self):
        tower = fourfold_cone_tower()
        ring = tower.input_ring
        strat = Stratification(tower, rules=PRESETS["fourfold_recipe"])
        assert strat.top == 4
        assert same_variety(strat.level(2)[0], Ideal.parse(ring, "x; y; z"))
        assert len(strat.level(3)) == 1
        assert same_variety(strat.level(3)[0], Ideal.parse(ring, "x; y; z; t"))
        assert strat.level(4) == []


class TestNodalImages:
    def test_node_is_one_level_deeper_than_curve(self):
        tower = nodal_curve_tower()
        ring = tower.input_ring
        curve = tuple(ring.parse(g) for g in NODAL_CURVE)
        strat = Stratification(tower, rules=PRESETS["curve_recipe"])
        assert strat.top == 3
        w_ideal = Ideal(ring, curve)
        origin = Ideal.parse(ring, "x; y; w")
        assert len(strat.level(2)) == 1
        assert same_variety(strat.level(2)[0], w_ideal)
        assert len(strat.level(3)) == 1
        assert same_variety(strat.level(3)[0], origin)
        assert same_variety(strat.level(1)[0], w_ideal)


class TestProjectiveStratification:
    def test_three_lines_and_two_points(self):
        tower = projective_lines_tower()
        ring = tower.input_ring
        strat = Stratification(
            tower, rules=("fibers", "singular_images", "components")
        )
        assert strat.top == 3
        lines = [
            Ideal.parse(ring, "X; Y; Z"),
            Ideal.parse(ring, "X + Y; S; Z"),
            Ideal.parse(ring, "X - Y; S; Z"),
        ]
        level2 = strat.level(2)
        assert len(level2) == 3
        for expected in lines:
            assert any(same_variety(got, expected) for got in level2)
        points = [
            Ideal.parse(ring, "S; X; Y; Z"),
            Ideal.parse(ring, "T; X; Y; Z"),
        ]
        level3 = strat.level(3)
        assert len(level3) == 2
        for expected in points:
            assert any(same_variety(got, expected) for got in level3)


class TestUserPieces:
    def test_off_variety_piece_warns_but_lands(self):
        tower = cone_tower()
        piece = Ideal.parse(CONE, "x - 1; y; z; t")  # not on the cone
        strat = Stratification(tower, rules=("images",), user_pieces=(piece,))
        assert any("does not lie on the variety" in w for w in strat.warnings)
        assert any(same_variety(p, piece) for p in strat.level(3))

    def test_on_variety_piece_no_warning(self):
        tower = cone_tower()
        piece = Ideal.parse(CONE, "x - 1; y - 1; z; t")  # on the cone
        strat = Stratification(tower, rules=("images",), user_pieces=(piece,))
        assert not any("does not lie" in w for w in strat.warnings)
        assert any(same_variety(p, piece) for p in strat.level(3))


# -- fiber-jump loci ------------------------------------------------------------


def ring_diff_variables(chart) -> dict[str, int]:
    """The reference for Stratification._new_variables_by_step, read off
    the ring names along the lineage: each chart variable with the step
    whose ring last brought it in, new against the ring before it (the
    input coordinates, for the first step)."""
    base_names = {n for n, _ in chart.base_binding}
    out: dict[str, int] = {}
    prev: set = set()
    for k, step in enumerate(chart.lineage):
        names = set(step.ring.names)
        fresh = names - prev - base_names if k == 0 else names - prev
        for n in fresh:
            out[n] = step.step
        prev = names
    # a later pivot can solve an earlier ratio variable away entirely
    return {n: s for n, s in out.items() if n in chart.ring.names}


class ReferenceStratification(Stratification):
    """The images rule as it was before point centers were skipped.

    Every ratio variable of every step is eliminated, a new center Ideal is
    built for every use, and the dimension filter runs after deduplication.
    """

    def _reference_center(self, step: int) -> Ideal:
        return Ideal(self.base_ring, self.tower.steps[step])

    def _new_variables_by_step(self, chart) -> dict[str, int]:
        return ring_diff_variables(chart)

    def _rule_images(self) -> None:
        for s in range(len(self.tower.steps)):
            self._add(self._reference_center(s), "images", step=s)
        for s, candidate in self._jump_candidates():
            center = self._reference_center(s)
            d_center = self._dim(center)
            d_cand = self._dim(candidate)
            if d_cand is None or d_center is None or d_cand >= d_center:
                continue
            self._add(candidate, "images", step=s, note="fiber jump")

    def _jump_candidates(self) -> list[tuple[int, Ideal]]:
        found: dict = {}
        base = self.base_ring
        for chart in self.tower.nonempty_leaves():
            var_step = self._new_variables_by_step(chart)
            if not var_step:
                continue
            graph, rename = graph_ideal(chart, chart.relations.gens, base)
            for v, s in sorted(var_step.items()):
                drop_vars = set(chart.ring.names) - {v}
                elim = graph.eliminate(drop_vars)
                for g in elim.gens:
                    d = g.degree_in(v)
                    if d < 1:
                        continue
                    lc = coefficients_in(g, v)[-1]
                    if lc.is_constant():
                        continue
                    lc_base = lc.substitute(rename, base)
                    candidate = self._reference_center(s).plus([lc_base])
                    found.setdefault(candidate.canonical_key(), (s, candidate))
        return sorted(found.values(), key=lambda t: (t[0], str(t[1].canonical_key())))


UMBRELLA = PolynomialRing(("x", "y", "t"))


def umbrella_tower(with_point: bool = False) -> ResolutionTower:
    """The Whitney umbrella x^2 = t*y^2 blown up along its double line."""
    r = UMBRELLA
    tower = ResolutionTower.affine(r, (r.parse("x^2 - t*y^2"),))
    tower.blow_up((r.var("x"), r.var("y")))
    if with_point:
        tower.blow_up((r.var("x"), r.parse("y - 1"), r.parse("t - 1")))
    return tower


def quadric_fourfold_tower() -> ResolutionTower:
    """x*y = z*t in A^4 blown up along the plane x = y = z."""
    r = PolynomialRing(("x", "y", "z", "t"))
    tower = ResolutionTower.affine(r, (r.parse("x*y - z*t"),))
    tower.blow_up((r.var("x"), r.var("y"), r.var("z")))
    return tower


def plane_pair_tower() -> ResolutionTower:
    """y*(y - t) = 0 in A^3 blown up along x = y, then along y = t - 1 = 0.

    On chart aff/s1p1 the second pivot vanishes on the component yp = 0,
    so it is a zero divisor there and the leaves above that chart are
    their own homes.
    """
    r = PolynomialRing(("x", "y", "t"))
    tower = ResolutionTower.affine(r, (r.parse("y*(y - t)"),))
    tower.blow_up((r.var("x"), r.var("y")))
    tower.blow_up((r.var("y"), r.parse("t - 1")))
    return tower


def prefixes(tower: ResolutionTower) -> list[ResolutionTower]:
    """The affine tower cut after 0, 1, ... of its steps."""
    out = [ResolutionTower.affine(tower.input_ring, tower.input_relations)]
    for center in tower.steps:
        out.append(out[-1].copy())
        out[-1].blow_up(center)
    return out


def corpus_prefixes(name: str) -> list[ResolutionTower]:
    ws = Workspace(parse_scenario(CORPUS / f"{name}.scn"))
    return [ws.tower(k) for k in range(len(ws.scenario.steps) + 1)]


EXACTNESS_CASES = {
    **{
        path.stem: lambda name=path.stem: corpus_prefixes(name)
        for path in CORPUS.glob("*.scn")
    },
    "umbrella_then_point": lambda: prefixes(umbrella_tower(with_point=True)),
    "quadric_fourfold": lambda: prefixes(quadric_fourfold_tower()),
    "plane_pair": lambda: prefixes(plane_pair_tower()),
}


# every tower this file builds, each with its prefixes where they are used
TOWERS = {
    **EXACTNESS_CASES,
    "cone": lambda: [cone_tower()],
    "smooth_plane": lambda: [smooth_plane_tower()],
    "fourfold_cone": lambda: [fourfold_cone_tower()],
    "nodal_curve": lambda: [nodal_curve_tower()],
    "projective_lines": lambda: [projective_lines_tower()],
    "umbrella": lambda: [umbrella_tower()],
}


@pytest.mark.hashseed
@pytest.mark.parametrize("case", sorted(TOWERS))
def test_chart_relations_are_the_strict_transform_of_the_input(case):
    # every chart of every tower, leaves and the charts they were made from,
    # projective patches included: its relations are what proper_transform
    # makes of the input relations along its lineage
    checked = 0
    for tower in TOWERS[case]():
        base = Ideal(tower.input_ring, tower.input_relations)
        for leaf in tower.leaves:
            chart = leaf
            while chart is not None:
                assert chart.relations == proper_transform(chart, base), (case, chart.name)
                checked += 1
                chart = chart.parent
    assert checked > 0


def eliminated_homes(tower: ResolutionTower) -> dict[str, dict[tuple[str, int], object]]:
    """leaf name -> {(ratio variable, step): home chart} for every pair that
    the images rule eliminates (centers of positive dimension only)."""
    strat = Stratification(tower, rules=())
    dims = [strat.dim_of(Ideal(tower.input_ring, c)) for c in tower.steps]
    out = {}
    for leaf in tower.nonempty_leaves():
        pairs = {
            (v, s): Stratification._home(leaf, s, {})
            for v, s in strat._new_variables_by_step(leaf).items()
            if dims[s] is not None and dims[s] > 0
        }
        out[leaf.name] = pairs
    return out


@pytest.mark.hashseed
class TestFiberJumps:
    @pytest.mark.parametrize("case", sorted(EXACTNESS_CASES))
    def test_images_rule_matches_reference_at_every_prefix(self, case):
        for tower in EXACTNESS_CASES[case]():
            got = Stratification(tower, rules=("images",)).describe()
            want = ReferenceStratification(tower, rules=("images",)).describe()
            assert got == want, (case, len(tower.steps))

    @pytest.mark.parametrize("case", sorted(TOWERS))
    def test_ratio_variables_by_step_match_the_ring_diff_reference(self, case):
        # every chart of every tower, leaves and the charts they were made from
        checked = 0
        for tower in TOWERS[case]():
            strat = Stratification(tower, rules=())
            for leaf in tower.leaves:
                chart = leaf
                while chart is not None:
                    got = strat._new_variables_by_step(chart)
                    assert got == ring_diff_variables(chart), (case, chart.name)
                    checked += bool(got)
                    chart = chart.parent
        assert checked > 0

    def test_umbrella_double_line_jumps_at_the_pinch_point(self):
        strat = Stratification(umbrella_tower(), rules=("images",))
        jumps = [p for p in strat.describe()["pieces"] if p["note"] == "fiber jump"]
        assert jumps == [
            {
                "level": 2,
                "rule": "images",
                "step": 1,
                "note": "fiber jump",
                "generators": ["t", "y", "x"],
            }
        ]

    def test_quadric_fourfold_jumps_at_level_three(self):
        strat = Stratification(quadric_fourfold_tower(), rules=("images",))
        jumps = [p for p in strat.pieces if p.note == "fiber jump"]
        assert len(jumps) == 1
        assert jumps[0].level == 3 and jumps[0].step == 0
        assert same_variety(jumps[0].ideal, Ideal.parse(strat.base_ring, "x; y; z; t"))

    def test_tower_extension_eliminates_on_the_step_one_charts(self):
        ws = Workspace(parse_scenario(CORPUS / "tower_extension.scn"))
        homes = eliminated_homes(ws.tower())
        assert sum(len(pairs) for pairs in homes.values()) >= 6
        for leaf in ws.tower().nonempty_leaves():
            step_one = leaf
            while len(step_one.lineage) > 1:
                step_one = step_one.parent
            for (v, s), home in homes[leaf.name].items():
                assert s == 0 and home is step_one, (leaf.name, v)

    def test_a_zero_divisor_pivot_keeps_the_leaf_as_home(self):
        tower = plane_pair_tower()
        homes = eliminated_homes(tower)
        above = {n: pairs for n, pairs in homes.items() if n.startswith("aff/s1p1/s2p")}
        assert sorted(above) == ["aff/s1p1/s2p0", "aff/s1p1/s2p1"]
        by_name = {leaf.name: leaf for leaf in tower.nonempty_leaves()}
        for name, pairs in above.items():
            for (v, s), home in pairs.items():
                assert home is by_name[name], (name, v, s)
        # a step-1 variable is among them, so the climb really stopped early
        assert any(s == 0 for pairs in above.values() for _, s in pairs)

    @pytest.mark.parametrize(
        "name, prefix, expected",
        [
            ("tower_extension", None, 6),
            ("tower_extension", 1, 6),
            ("smooth_blowup_plane", None, 0),  # its only center is a point
        ],
    )
    def test_point_centers_are_not_eliminated_over(self, monkeypatch, name, prefix, expected):
        ws = Workspace(parse_scenario(CORPUS / f"{name}.scn"))
        tower = ws.tower(prefix)
        counted = {"inside": False, "eliminations": 0}
        eliminate = Ideal.eliminate
        jump_candidates = Stratification._jump_candidates

        # only eliminations in graph rings count, not the ones inside the
        # nonzerodivisor checks; no corpus variable starts with "_b_", so
        # graph_ideal tags the input coordinates with it
        graph_names = {"_b_" + n for n in tower.input_ring.names}

        def counting_eliminate(ideal, drop):
            if counted["inside"] and graph_names <= set(ideal.ring.names):
                counted["eliminations"] += 1
            return eliminate(ideal, drop)

        def flagged_jump_candidates(strat):
            counted["inside"] = True
            try:
                return jump_candidates(strat)
            finally:
                counted["inside"] = False

        monkeypatch.setattr(Ideal, "eliminate", counting_eliminate)
        monkeypatch.setattr(Stratification, "_jump_candidates", flagged_jump_candidates)
        Stratification(tower, rules=("images",))
        assert counted["eliminations"] == expected
