"""Blowup chart construction against hand-checked transforms.

The running example is the quadric cone x^2 - y^2 + t*z^2 = 0 in four
variables, blown up along the line x = y = z = 0. Chart generators were
expanded by hand: in the pivot-z chart the relation becomes
z^2*(xp^2 - yp^2 + t), so the transform is xp^2 - yp^2 + t, and similarly
for the other pivots.
"""

from pathlib import Path

import pytest

from singpair.blowup import ResolutionTower, blowdown_image, proper_transform
from singpair.errors import CenterError
from singpair.geometry import singular_locus
from singpair.ideals import Ideal
from singpair.polyring import PolynomialRing
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
        tower.blow_up((ring.parse("y^2 - x^3 - x^2"), ring.var("w")))
        assert len(tower.leaves) == 5
        passed = [c for c in tower.leaves if c.name == "aff/s1p0"]
        assert len(passed) == 1
        assert passed[0].lineage[-1].exceptional is None
        child = chart_by_ring(tower, ("x", "yp", "wpp"))
        assert child.name == "aff/s1p2/s2p1"
        assert child.relations == Ideal(child.ring, (child.ring.var("wpp"),))

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
