"""Blowup chart construction against hand-checked transforms.

The running example is the quadric cone x^2 - y^2 + t*z^2 = 0 in four
variables, blown up along the line x = y = z = 0. Chart generators were
expanded by hand: in the pivot-z chart the relation becomes
z^2*(xp^2 - yp^2 + t), so the transform is xp^2 - yp^2 + t, and similarly
for the other pivots.
"""

from dataclasses import replace
from pathlib import Path

import pytest
import test_strata

from singpair import blowup
from singpair.blowup import ResolutionTower, blowdown_image, proper_transform
from singpair.errors import CenterError
from singpair.geometry import singular_locus
from singpair.ideals import Ideal, fresh_name
from singpair.polyring import Polynomial, PolynomialRing
from singpair.scenario import Workspace, parse_scenario

CORPUS = Path(__file__).resolve().parents[1] / "src" / "singpair" / "corpus"
CONE = PolynomialRing(("x", "y", "z", "t"))


def cone_tower():
    tower = ResolutionTower.affine(CONE, (CONE.parse("x^2 - y^2 + t*z^2"),))
    tower.blow_up(tuple(Ideal.parse(CONE, "x; y; z").gens))
    return tower


def chart_by_ring(tower, names):
    for c in tower.leaves:
        if c.ring.names == tuple(names):
            return c
    raise AssertionError(f"no chart with ring {names}")


class TestConeTower:
    def test_three_named_charts(self):
        tower = cone_tower()
        assert sorted(c.name for c in tower.leaves) == [
            "aff/s1p0",
            "aff/s1p1",
            "aff/s1p2",
        ]

    def test_chart_relations(self):
        tower = cone_tower()
        zc = chart_by_ring(tower, ("xp", "yp", "z", "t"))
        assert zc.relations == Ideal.parse(zc.ring, "xp^2 - yp^2 + t")
        yc = chart_by_ring(tower, ("xp", "y", "zp", "t"))
        assert yc.relations == Ideal.parse(yc.ring, "xp^2 - 1 + t*zp^2")
        xc = chart_by_ring(tower, ("x", "yp", "zp", "t"))
        assert xc.relations == Ideal.parse(xc.ring, "1 - yp^2 + t*zp^2")

    def test_bindings_and_exceptional(self):
        tower = cone_tower()
        zc = chart_by_ring(tower, ("xp", "yp", "z", "t"))
        binding = zc.binding_map()
        assert binding["x"] == zc.ring.parse("xp*z")
        assert binding["y"] == zc.ring.parse("yp*z")
        assert binding["z"] == zc.ring.var("z")
        assert binding["t"] == zc.ring.var("t")
        assert zc.exceptionals == (zc.ring.var("z"),)
        # the pulled-back cone equation must die on the chart variety
        f = zc.pull_back(CONE.parse("x^2 - y^2 + t*z^2"))
        assert zc.relations.contains(f)

    def test_all_charts_smooth(self):
        assert cone_tower().all_smooth()

    def test_point_has_exactly_one_owner(self):
        # (2, 1, 1, -3) lies on the cone away from the center; its single
        # preimage appears in all three charts but only one may own it.
        tower = cone_tower()
        points = {
            ("xp", "yp", "z", "t"): "xp - 2; yp - 1; z - 1; t + 3",
            ("xp", "y", "zp", "t"): "xp - 2; y - 1; zp - 1; t + 3",
            ("x", "yp", "zp", "t"): "x - 2; yp - 1/2; zp - 1/2; t + 3",
        }
        owners = []
        for names, text in points.items():
            chart = chart_by_ring(tower, names)
            if chart.owns(Ideal.parse(chart.ring, text)):
                owners.append(chart.name)
        assert len(owners) == 1

    def test_audit_flags(self):
        report = cone_tower().audit()
        assert report["nonempty_leaves"] == 3
        assert report["all_charts_smooth"] is True
        assert report["exceptional_over_singular"] is True

    def test_blowdown_of_exceptional(self):
        tower = cone_tower()
        xc = chart_by_ring(tower, ("x", "yp", "zp", "t"))
        img = blowdown_image(xc, xc.relations.plus([xc.ring.var("x")]), CONE)
        line = Ideal.parse(CONE, "x; y; z")
        assert img.variety_contained_in(line)
        assert line.variety_contained_in(img)


class TestSmoothPlane:
    def plane_tower(self):
        ring = PolynomialRing(("x", "y"))
        tower = ResolutionTower.affine(ring, ())
        tower.blow_up((ring.var("x"), ring.var("y")))
        return tower

    def test_two_charts_no_relations(self):
        tower = self.plane_tower()
        assert len(tower.leaves) == 2
        assert all(c.relations.is_zero() for c in tower.leaves)
        assert tower.all_smooth()

    def test_exceptional_over_smooth_base_is_flagged(self):
        report = self.plane_tower().audit()
        assert report["exceptional_over_singular"] is False

    def test_overlap_point_owned_once(self):
        tower = self.plane_tower()
        owned = [
            c
            for c in tower.leaves
            if c.owns(Ideal(c.ring, tuple(c.pull_back(g) for g in
                                          (CONE.parse("x - 1"), CONE.parse("y - 1")))))
        ]
        assert len(owned) == 1


class TestSecondStep:
    """A nodal curve center given in base coordinates, transformed per chart."""

    def nodal_tower(self):
        ring = PolynomialRing(("x", "y", "w"))
        tower = ResolutionTower.affine(ring, (ring.var("w"),))
        tower.blow_up((ring.var("x"), ring.var("y"), ring.var("w")))
        return tower, ring

    def test_center_transforms_per_chart(self):
        tower, ring = self.nodal_tower()
        center = (ring.parse("y^2 - x^3 - x^2"), ring.var("w"))
        xc = chart_by_ring(tower, ("x", "yp", "wp"))
        moved = proper_transform(xc, Ideal(ring, center))
        assert moved == Ideal.parse(xc.ring, "yp^2 - x - 1; wp")
        wc = chart_by_ring(tower, ("xp", "yp", "w"))
        assert proper_transform(wc, Ideal(ring, center)).is_trivial()

    def test_blow_up_pass_through_and_split(self):
        tower, ring = self.nodal_tower()
        before = {c.name: c for c in tower.leaves}
        tower.blow_up((ring.parse("y^2 - x^3 - x^2"), ring.var("w")))
        assert len(tower.leaves) == 5
        passed = [c for c in tower.leaves if c.name == "aff/s1p0"]
        assert len(passed) == 1
        assert passed[0].lineage[-1].exceptional is None
        child = chart_by_ring(tower, ("x", "yp", "wpp"))
        assert child.name == "aff/s1p2/s2p1"
        assert child.relations == Ideal(child.ring, (child.ring.var("wpp"),))
        # each chart keeps the chart it was made from, outside equality
        assert passed[0].parent is before["aff/s1p0"]
        assert child.parent is before["aff/s1p2"]
        assert before["aff/s1p2"].parent.parent is None
        orphan = replace(child, parent=None)
        assert orphan == child and hash(orphan) == hash(child)

    def test_irregular_center_rejected(self):
        ring = PolynomialRing(("x", "y", "w"))
        tower = ResolutionTower.affine(ring, (ring.var("w"),))
        # V(x*y, x*w) = V(x) u V(y, w) is not cut by a regular sequence
        with pytest.raises(CenterError):
            tower.blow_up((ring.parse("x*y"), ring.parse("x*w")))


class TestProjectiveTower:
    RING = PolynomialRing(("S", "T", "X", "Y", "Z"))
    F = RING.parse("S*X^2 - S*Y^2 + T*Z^2")

    def fresh(self):
        return ResolutionTower.projective(self.RING, (self.F,))

    def test_patches(self):
        tower = self.fresh()
        assert len(tower.leaves) == 5
        tpatch = next(c for c in tower.leaves if c.name == "T=1")
        assert tpatch.ring.names == ("S", "X", "Y", "Z")
        assert tpatch.relations == Ideal.parse(tpatch.ring, "S*X^2 - S*Y^2 + Z^2")
        xpatch = next(c for c in tower.leaves if c.name == "X=1")
        assert xpatch.ownership == (xpatch.ring.var("S"), xpatch.ring.var("T"))

    def test_projective_space_without_relations(self):
        tower = ResolutionTower.projective(self.RING, ())
        assert [c.name for c in tower.leaves] == ["S=1", "T=1", "X=1", "Y=1", "Z=1"]
        assert all(c.relations.is_zero() for c in tower.leaves)
        tower.blow_up((self.RING.var("X"), self.RING.var("Y"), self.RING.var("Z")))
        assert tower.all_smooth()

    def test_rejects_inhomogeneous(self):
        with pytest.raises(CenterError):
            ResolutionTower.projective(self.RING, (self.RING.parse("S*X^2 - Y"),))

    def test_first_step_leaves_singular_chart(self):
        tower = self.fresh()
        tower.blow_up((self.RING.var("X"), self.RING.var("Y"), self.RING.var("Z")))
        assert len(tower.leaves) == 9
        assert not tower.all_smooth()
        sing_chart = next(
            c
            for c in tower.leaves
            if c.name.startswith("T=1/") and c.ring.names == ("S", "X", "Yp", "Zp")
        )
        assert sing_chart.relations == Ideal.parse(
            sing_chart.ring, "S - S*Yp^2 + Zp^2"
        )
        locus = singular_locus(sing_chart.relations)
        assert not locus.is_trivial()
        witness = Ideal.parse(sing_chart.ring, "S; X - 5; Yp - 1; Zp")
        assert all(witness.contains(g) for g in locus.gens)

    def test_full_tower_resolves(self):
        tower = self.fresh()
        tower.blow_up((self.RING.var("X"), self.RING.var("Y"), self.RING.var("Z")))
        tower.blow_up((self.RING.parse("X + Y"), self.RING.var("S"), self.RING.var("Z")))
        tower.blow_up((self.RING.parse("X - Y"), self.RING.var("S"), self.RING.var("Z")))
        by_patch = {}
        for c in tower.leaves:
            key = c.name.split("/")[0]
            by_patch[key] = by_patch.get(key, 0) + 1
        assert by_patch == {"T=1": 11, "S=1": 3, "X=1": 5, "Y=1": 5, "Z=1": 1}
        assert len(tower.nonempty_leaves()) == 25
        assert tower.all_smooth()


def reference_center_on_chart(leaf, center):
    """A one-shot center transform, the reference for proper_transform.

    Pull the center back, add every graph relation the lineage has kept
    (each carried through the later substitutions), and saturate by every
    exceptional in turn.
    """
    graph = ()
    for step in leaf.lineage:
        if step.exceptional is not None:
            move = step.substitution_map()
            graph = tuple(g.substitute(move, step.ring) for g in graph) + step.graph
    ideal = Ideal(leaf.ring, tuple(leaf.pull_back(g) for g in center) + graph)
    for e in leaf.exceptionals:
        if ideal.is_trivial():
            break
        ideal = ideal.saturate(e)
    return ideal


def grown(tower, centers):
    """The tower and each tower after one more of the centers."""
    out = [tower]
    for center in centers:
        out.append(out[-1].copy())
        out[-1].blow_up(center)
    return out


def corpus_prefixes(name):
    ws = Workspace(parse_scenario(CORPUS / f"{name}.scn"))
    return [ws.tower(k) for k in range(len(ws.scenario.steps) + 1)]


def hand_tower(variables, relations, *centers):
    ring = PolynomialRing(variables)
    base = ResolutionTower.affine(ring, Ideal.parse(ring, relations).gens)
    return grown(base, [tuple(Ideal.parse(ring, c).gens) for c in centers])


TRANSFORM_CASES = {
    **{
        path.stem: lambda name=path.stem: corpus_prefixes(name)
        for path in CORPUS.glob("*.scn")
    },
    "nodal": lambda: hand_tower(("x", "y", "w"), "w", "x; y; w", "y^2 - x^3 - x^2; w"),
    "umbrella_then_point": lambda: hand_tower(
        ("x", "y", "t"), "x^2 - t*y^2", "x; y", "x; y - 1; t - 1"
    ),
    "quadric_fourfold": lambda: hand_tower(("x", "y", "z", "t"), "x*y - z*t", "x; y; z"),
    # the pivot-z chart keeps the graph relation x^3 - y^2 = r*z, which the
    # z-axis needs to lift to x = y = r = 0 rather than to x = y = 0
    "cusp_cylinder_then_axis": lambda: hand_tower(("x", "y", "z"), "", "y^2 - x^3; z", "x; y"),
}


@pytest.mark.parametrize("case", sorted(TRANSFORM_CASES))
def test_centers_move_up_as_the_one_shot_reference(case):
    # every leaf of every prefix against every center of the full tower,
    # including centers the leaf's own lineage already blew up
    towers = TRANSFORM_CASES[case]()
    for tower in towers:
        for leaf in tower.leaves:
            for center in towers[-1].steps:
                got = proper_transform(leaf, Ideal(tower.input_ring, center))
                want = reference_center_on_chart(leaf, center)
                assert got.ring == leaf.ring
                assert got.groebner() == want.groebner(), (case, leaf.name, center)


def reference_audit(tower):
    """The audit before centers settled their exceptionals: the blowdown
    image of every exceptional on every nonempty leaf, each one tested,
    and the Jacobian test on every nonempty leaf's own relations."""
    report = {
        "leaves": len(tower.leaves),
        "nonempty_leaves": len(tower.nonempty_leaves()),
        "steps": len(tower.steps),
        "all_charts_smooth": reference_all_smooth(tower),
    }
    if not tower.projective:
        base = Ideal(tower.input_ring, tower.input_relations)
        sing = (Ideal(tower.input_ring, (tower.input_ring.one(),)) if base.is_zero()
                else singular_locus(base))
        over_singular = True
        for leaf in tower.nonempty_leaves():
            for e in leaf.exceptionals:
                img = blowup.blowdown_image(leaf, leaf.relations.plus([e]), tower.input_ring)
                if not img.is_trivial() and not img.variety_contained_in(sing):
                    over_singular = False
        report["exceptional_over_singular"] = over_singular
    return report


def umbrella_then_smooth_point():
    # the Whitney umbrella blown up along its singular line, then at its
    # smooth point x = t = 0, y = 1, which the first (pivot-x) chart does not
    # see: that leaf's one exceptional lies over the line, and only the later
    # leaves, over the pivot-y chart, have an exceptional over the point
    return hand_tower(("y", "x", "t"), "x^2 - t*y^2", "x; y", "x; y - 1; t")


AUDIT_CASES = {
    **{
        path.stem: lambda name=path.stem: corpus_prefixes(name)
        for path in CORPUS.glob("*.scn")
        if parse_scenario(path).kind == "affine"
    },
    "cone": lambda: [cone_tower()],
    "plane": lambda: [TestSmoothPlane().plane_tower()],
    "umbrella_then_smooth_point": umbrella_then_smooth_point,
}


@pytest.mark.parametrize("case", sorted(AUDIT_CASES))
def test_audit_matches_the_image_by_image_reference(case):
    for tower in AUDIT_CASES[case]():
        assert tower.audit() == reference_audit(tower), (case, len(tower.steps))


def test_first_image_off_the_singular_locus_is_on_a_later_leaf():
    tower = umbrella_then_smooth_point()[-1]
    first, *later = tower.nonempty_leaves()
    sing = singular_locus(Ideal(tower.input_ring, tower.input_relations))
    for e in first.exceptionals:
        img = blowdown_image(first, first.relations.plus([e]), tower.input_ring)
        assert img.variety_contained_in(sing)
    assert later
    assert tower.audit()["exceptional_over_singular"] is False


def test_audit_images_only_exceptionals_its_centers_leave_open(monkeypatch):
    # tower_extension's first center is the singular line of the cone, so
    # only the second step's exceptionals need an image, and the first of
    # them already leaves the singular locus
    calls = []
    original = blowup.blowdown_image

    def counting(*args):
        calls.append(args[0].name)
        return original(*args)

    monkeypatch.setattr(blowup, "blowdown_image", counting)
    tower = corpus_prefixes("tower_extension")[-1]
    assert reference_audit(tower)["exceptional_over_singular"] is False
    assert len(calls) == 24
    calls.clear()
    assert tower.audit()["exceptional_over_singular"] is False
    assert len(calls) <= 2


def test_passenger_variables_ride_along_as_under_substitution(monkeypatch):
    # a family parameter rides up every chart of a two-step tower; in_ring's
    # cached moves give the ideals that substitution into the target gives
    tower = hand_tower(("x", "y"), "", "x; y", "x; y - 1")[-1]
    family = Ideal.parse(PolynomialRing(("x", "y", "l")), "x - l*y^2; x^2 + l*y - 1/2*l^2")
    got = [proper_transform(c, family, ("l",)) for c in tower.leaves]

    def by_substitution(self, target):
        return self if target == self.ring else self.substitute({}, target)

    monkeypatch.setattr(Polynomial, "in_ring", by_substitution)
    want = [proper_transform(c, family, ("l",)) for c in tower.leaves]
    assert [i.ring for i in got] == [i.ring for i in want]
    assert [i.gens for i in got] == [i.gens for i in want]
    assert all("l" in i.ring.names for i in got)


@pytest.mark.parametrize("case", sorted(TRANSFORM_CASES))
def test_affine_transforms_match_the_substitution_route(case, monkeypatch):
    # every leaf of every prefix: on an affine tower, moving the generators
    # to the starting chart by name gives the ideals, term for term, that
    # substituting the identity origin map gives, with and without a
    # passenger variable riding along; a projective patch substitutes
    towers = TRANSFORM_CASES[case]()
    ring = towers[-1].input_ring
    names = {n for t in towers for c in t.leaves for n in c.ring.names}
    passenger = fresh_name(names | set(ring.names), "l")
    family_ring = PolynomialRing(ring.names + (passenger,))
    lam = family_ring.var(passenger)
    inputs = []
    for center in towers[-1].steps:
        inputs.append((Ideal(ring, center), ()))
        moved = [g.in_ring(family_ring) for g in center]
        family = [g + lam * h for g, h in zip(moved, moved[1:] + moved[:1])]
        inputs.append((Ideal(family_ring, family), (passenger,)))
    identity = blowup._is_identity
    verdicts = []

    def recording(binding, source, target):
        verdicts.append(identity(binding, source, target))
        return verdicts[-1]

    def transforms():
        return [
            proper_transform(leaf, ideal, extra)
            for tower in towers
            for leaf in tower.leaves
            for ideal, extra in inputs
        ]

    monkeypatch.setattr(blowup, "_is_identity", recording)
    got = transforms()
    monkeypatch.setattr(blowup, "_is_identity", lambda binding, source, target: False)
    want = transforms()
    assert verdicts == [not t.projective for t in towers for _ in t.leaves for _ in inputs]
    for g, w in zip(got, want, strict=True):
        assert g.ring == w.ring
        assert [list(p.terms.items()) for p in g.gens] == [list(p.terms.items()) for p in w.gens]


def test_an_origin_map_that_keeps_the_names_but_moves_them_is_substituted():
    # a starting chart whose origin map swaps two coordinates, in the ring
    # of the input: same names on both sides, yet not the identity
    ring = PolynomialRing(("x", "y"))
    start = ResolutionTower.affine(ring, ()).leaves[0]
    swap = replace(start, origin_binding=(("x", ring.var("y")), ("y", ring.var("x"))))
    ideal = Ideal.parse(ring, "x^2 - y")
    assert proper_transform(swap, ideal).gens == (ring.parse("y^2 - x"),)
    assert proper_transform(start, ideal).gens == ideal.gens


def reference_all_smooth(tower):
    """The Jacobian criterion on every nonempty leaf's own relations."""
    return all(singular_locus(c.relations).is_trivial() for c in tower.nonempty_leaves())


def projective_towers():
    case = TestProjectiveTower()
    space = ResolutionTower.projective(case.RING, ())
    lines = [(case.RING.var("X"), case.RING.var("Y"), case.RING.var("Z")),
             (case.RING.parse("X + Y"), case.RING.var("S"), case.RING.var("Z")),
             (case.RING.parse("X - Y"), case.RING.var("S"), case.RING.var("Z"))]
    return grown(case.fresh(), lines) + grown(space, lines[:1])


def nodal_towers():
    tower, ring = TestSecondStep().nodal_tower()
    return grown(tower, [(ring.parse("y^2 - x^3 - x^2"), ring.var("w"))])


SMOOTHNESS_CASES = {
    **TRANSFORM_CASES,
    "cone": lambda: [cone_tower()],
    "plane": lambda: [TestSmoothPlane().plane_tower()],
    "nodal_second_step": nodal_towers,
    "projective": projective_towers,
    "plane_two_steps": lambda: hand_tower(("x", "y"), "", "x; y", "x; y - 1"),
    "umbrella_then_smooth_point": umbrella_then_smooth_point,
}


@pytest.mark.parametrize("case", sorted(SMOOTHNESS_CASES))
def test_all_smooth_matches_the_per_leaf_reference(case):
    # every bundled scenario's towers and every tower built in this file,
    # prefixes included: the rule decides as the per-leaf test does
    for tower in SMOOTHNESS_CASES[case]():
        assert tower.all_smooth() == reference_all_smooth(tower), (case, len(tower.steps))


def jacobian_inputs(monkeypatch, tower):
    """all_smooth's answer and the ideals it handed to the Jacobian test."""
    seen = []
    original = blowup.singular_locus

    def recording(relations):
        seen.append(relations)
        return original(relations)

    monkeypatch.setattr(blowup, "singular_locus", recording)
    return tower.all_smooth(), seen


def own_tests(tower, seen):
    """The nonempty leaves whose own relations were tested."""
    return [c.name for c in tower.nonempty_leaves() if any(r is c.relations for r in seen)]


def test_smooth_parents_and_traces_show_the_charts_smooth(monkeypatch):
    # the plane and tower_extension's step-1 charts are smooth, and so are
    # the traces of the next center on them: no leaf is tested itself
    plane = TestSmoothPlane().plane_tower()
    smooth, seen = jacobian_inputs(monkeypatch, plane)
    assert smooth and len(seen) == 2 and own_tests(plane, seen) == []
    tower = corpus_prefixes("tower_extension")[-1]
    smooth, seen = jacobian_inputs(monkeypatch, tower)
    # the input chart, its three pivot charts and three traces of the
    # point, where the per-leaf test takes twelve
    assert smooth and len(seen) == 7 and len(tower.nonempty_leaves()) == 12
    assert own_tests(tower, seen) == []
    first_child = {}
    for c in tower.leaves:
        first_child.setdefault(id(c.parent), c)
    assert len(first_child) == 3
    for k, c in enumerate(first_child.values()):
        assert seen[0] is c.parent.parent.relations
        assert seen[1 + 2 * k] is c.parent.relations
        assert seen[2 + 2 * k].gens == c.parent.relations.plus(c.lineage[-1].center).gens


def test_charts_over_a_singular_parent_are_tested_themselves(monkeypatch):
    # the cone and the projective closure are singular before their first
    # step, so every chart of that step is decided by its own Jacobian
    cone = cone_tower()
    smooth, seen = jacobian_inputs(monkeypatch, cone)
    assert smooth and len(seen) == 4
    assert own_tests(cone, seen) == [c.name for c in cone.nonempty_leaves()]
    case = TestProjectiveTower()
    tower = grown(case.fresh(), [(case.RING.var("X"), case.RING.var("Y"), case.RING.var("Z"))])[-1]
    smooth, seen = jacobian_inputs(monkeypatch, tower)
    assert not smooth
    # every leaf up to the first singular one, on the patch T = 1
    names = [c.name for c in tower.nonempty_leaves()]
    (first,) = [c.name for c in tower.leaves if c.relations is seen[-1]]
    assert first.startswith("T=1/") and own_tests(tower, seen) == names[: names.index(first) + 1]


def pivot_charts(tower):
    """Every chart of the tower made by a pivot step, leaves and their
    ancestors, once each."""
    found = {}
    for leaf in tower.leaves:
        chart = leaf
        while chart.parent is not None:
            if chart.lineage[-1].exceptional is not None:
                found.setdefault(id(chart), chart)
            chart = chart.parent
    return list(found.values())


# a tower that both files build, a bundled one included, has one name in
# both and is checked once
RATIO_CASES = {
    **SMOOTHNESS_CASES,
    **{
        f"strata_{name}": build
        for name, build in test_strata.TOWERS.items()
        if name not in SMOOTHNESS_CASES
    },
}


@pytest.mark.parametrize("case", sorted(RATIO_CASES))
def test_ratio_variables_are_quotients_of_center_generators(case):
    # on every pivot chart, each ratio variable r_j of the step satisfies
    # center[j] = r_j * center[pivot] modulo the chart's relations, the
    # pivot generator pulls back to the exceptional, and every other chart
    # variable is a coordinate of the parent chart that the step leaves
    # alone: what carrying a parent's intersection points to the chart reads
    checked = 0
    for tower in RATIO_CASES[case]():
        for chart in pivot_charts(tower):
            step = chart.lineage[-1]
            move = step.substitution_map()
            pulled = [g.substitute(move, chart.ring) for g in step.center]
            assert pulled[step.pivot] == step.exceptional, chart.name
            ratios = dict(step.ratios)
            assert sorted(ratios.values()) == [
                j for j in range(len(step.center)) if j != step.pivot
            ], chart.name
            for name, j in step.ratios:
                relation = pulled[j] - chart.ring.var(name) * pulled[step.pivot]
                assert chart.relations.contains(relation), (chart.name, name)
            for name in chart.ring.names:
                if name not in ratios:
                    assert name in chart.parent.ring.names and name not in move, chart.name
            checked += 1
    assert checked > 0
