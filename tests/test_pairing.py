"""Pairing through the tower: transforms, multiplicities, audits, comparisons."""

from dataclasses import replace
from functools import cache

import pytest

from singpair import pairing
from singpair.blowup import ResolutionTower, misses_center
from singpair.cycles import Cycle, CycleFamily, Perversity
from singpair.errors import (
    ComplementarityError,
    CompleteIntersectionError,
    ImproperIntersectionError,
    PerversityError,
    SmoothnessError,
)
from singpair.geometry import PrimaryComponent
from singpair.ideals import Ideal
from singpair.pairing import (
    audit,
    compare_towers,
    direct_degree,
    intersect_on_chart,
    pair,
    pushforward,
    transform_cycle,
)
from singpair.polyring import PolynomialRing
from singpair.strata import Stratification

CONE = PolynomialRing(("x", "y", "z", "t"))
CONE_L = PolynomialRing(("x", "y", "z", "t", "l"))
PLANE = PolynomialRing(("x", "y"))


def cone_tower() -> ResolutionTower:
    tower = ResolutionTower.affine(CONE, (CONE.parse("x^2 - y^2 + t*z^2"),))
    tower.blow_up((CONE.var("x"), CONE.var("y"), CONE.var("z")))
    return tower


@cache
def coarse() -> Stratification:
    return Stratification(cone_tower(), rules=("images",))


@cache
def refined() -> Stratification:
    return Stratification(cone_tower(), rules=("images", "fibers"))


@cache
def longer() -> Stratification:
    # same tower followed by a blowup of a smooth point away from the line
    tower = cone_tower()
    tower.blow_up(tuple(CONE.parse(s) for s in ("x - 2", "y - 1", "z - 1", "t + 3")))
    return Stratification(tower, rules=("images",))


@cache
def plane_strat() -> Stratification:
    tower = ResolutionTower.affine(PLANE, ())
    tower.blow_up((PLANE.var("x"), PLANE.var("y")))
    return Stratification(tower, rules=("images",))


def divisor(name: str = "D", p: Perversity | None = None, mult: int = 1) -> Cycle:
    return Cycle(name, Ideal.parse(CONE, "x - y; t"), p or Perversity.zero(3), mult)


def alpha0() -> Cycle:
    return Cycle("alpha0", Ideal.parse(CONE, "x - y - z^2; x + y; t"), Perversity((1, 1, 1)))


def alpha1() -> Cycle:
    gens = "x - y - z^2; x + y + 1; t - 1"
    return Cycle("alpha1", Ideal.parse(CONE, gens), Perversity((1, 1, 1)))


def family_a() -> CycleFamily:
    total = Ideal.parse(CONE_L, "x - y - z^2; t + x + y; t - l")
    return CycleFamily("A", total, "l", marked=(0, 1), perversity=Perversity((1, 1, 1)))


def family_b() -> CycleFamily:
    total = Ideal.parse(CONE_L, "x - y; z; t - l")
    return CycleFamily("B", total, "l", marked=(1, 2), perversity=Perversity((0, 1, 1)))


class TestTransform:
    def test_divisor_survives_on_every_chart(self):
        moved = transform_cycle(coarse(), divisor().ideal)
        seen = {name: tuple(str(g) for g in ideal.gens) for name, ideal in moved.items()}
        assert seen == {
            "aff/s1p0": ("t", "xp - yp"),
            "aff/s1p1": ("t", "xp - 1"),
            "aff/s1p2": ("t", "yp - 1"),
        }

    def test_cycle_inside_stratum_is_refused(self):
        with pytest.raises(ImproperIntersectionError, match="level 1 stratum"):
            transform_cycle(coarse(), Ideal.parse(CONE, "x; y; z"))

    def test_cycle_inside_center_is_refused(self):
        # no stratum piece covers the center here, so the tower itself objects
        tower = ResolutionTower.affine(PLANE, ())
        tower.blow_up((PLANE.var("x"), PLANE.var("y")))
        bare = Stratification(tower, rules=())
        with pytest.raises(ImproperIntersectionError, match="center of blowup step 1"):
            transform_cycle(bare, Ideal.parse(PLANE, "x; y"))


class TestPair:
    def test_tangent_curve_meets_divisor_once_upstairs(self):
        report = pair(divisor(), alpha0(), coarse(), allow_noncomplementary=True)
        assert report["degree"] == 1
        assert report["upstairs_degree"] == 1
        assert list(report["charts"]) == ["aff/s1p0"]
        (entry,) = report["points"]
        assert [str(g) for g in entry["prime"].gens] == ["t", "z", "y", "x"]
        assert entry["multiplicity"] == 1 and entry["residue_degree"] == 1
        # downstairs the same intersection is a length 2 tangency
        assert report["direct_degree"] == 2

    def test_displaced_curve_misses_divisor_in_every_chart(self):
        report = pair(divisor(), alpha1(), coarse(), allow_noncomplementary=True)
        assert report["degree"] == 0
        assert report["points"] == []
        assert report["charts"] == {}
        assert report["direct_degree"] == 0
        moved = transform_cycle(coarse(), alpha1().ideal)
        dt = transform_cycle(coarse(), divisor().ideal)
        for chart in coarse().tower.nonempty_leaves():
            if chart.name in moved:
                assert intersect_on_chart(chart, dt[chart.name], moved[chart.name]) == []

    def test_degree_is_bilinear_in_multiplicities(self):
        report = pair(divisor(mult=2), alpha0(), coarse(), allow_noncomplementary=True)
        assert report["degree"] == 2
        assert report["direct_degree"] == 4
        assert report["points"][0]["multiplicity"] == 2

    def test_pairing_is_symmetric(self):
        left = pair(divisor(), alpha0(), coarse(), allow_noncomplementary=True)
        right = pair(alpha0(), divisor(), coarse(), allow_noncomplementary=True)
        assert left["degree"] == right["degree"] == 1

    def test_perversities_are_required(self):
        bare = Cycle("bare", divisor().ideal)
        with pytest.raises(PerversityError):
            pair(bare, alpha0(), coarse())

    def test_noncomplementary_needs_waiver(self):
        with pytest.raises(ComplementarityError):
            pair(divisor(), alpha0(), coarse())

    def test_violated_perversity_stops_the_pairing(self):
        # through the vertex the curve needs the top perversity at codim 3
        with pytest.raises(PerversityError):
            pair(divisor(Perversity((0, 0, 1))), alpha0(), refined(),
                 allow_noncomplementary=True)


class TestScope:
    def test_positive_dimensional_overlap_is_refused(self):
        dt = transform_cycle(coarse(), divisor().ideal)
        chart = {c.name: c for c in coarse().tower.nonempty_leaves()}["aff/s1p0"]
        with pytest.raises(ImproperIntersectionError, match="dimension 2"):
            intersect_on_chart(chart, dt["aff/s1p0"], dt["aff/s1p0"])

    def test_one_complete_intersection_factor_suffices(self):
        flat = ResolutionTower.affine(CONE, ())
        planes = Ideal.parse(CONE, "x*z; x*t; y*z; y*t")
        slanted = Ideal.parse(CONE, "x - z; y - t")
        components = intersect_on_chart(flat.leaves[0], planes, slanted)
        total = sum(c.multiplicity * c.residue_degree for c in components)
        assert total == planes.plus(slanted).vector_space_dimension() == 3

    def test_two_bad_factors_are_refused(self):
        flat = ResolutionTower.affine(CONE, ())
        planes = Ideal.parse(CONE, "x*z; x*t; y*z; y*t")
        crossed = Ideal.parse(
            CONE,
            "x^2 - z^2; x*y + x*t - y*z - z*t; x*y - x*t - y*z + z*t; y^2 - t^2",
        )
        with pytest.raises(CompleteIntersectionError, match="neither"):
            intersect_on_chart(flat.leaves[0], planes, crossed)

    def test_points_on_singular_charts_are_refused(self):
        raw = ResolutionTower.affine(CONE, (CONE.parse("x^2 - y^2 + t*z^2"),))
        with pytest.raises(SmoothnessError):
            intersect_on_chart(raw.leaves[0], divisor().ideal, alpha0().ideal)


class TestAudit:
    def test_family_breaks_pairing_under_loose_rules(self):
        report = audit(divisor(), family_a(), coarse(), mode="strong",
                       allow_noncomplementary=True, allow_nonstandard=True)
        assert report["verdict"] == "INCONSISTENT"
        assert [v["degree"] for v in report["values"]] == [1, 0]
        assert report["family_check"]["ok"]
        terms = report["error_terms"]
        assert [t["value"] for t in terms] == [0, 1]
        owned = terms[0]["owned_components"]
        assert len(owned) == 1 and owned[0].chart == "aff/s1p0"
        limit = Ideal.parse(owned[0].ideal.ring, "t; z; xp - yp")
        assert owned[0].ideal.variety_contained_in(limit)
        assert limit.variety_contained_in(owned[0].ideal)
        assert terms[1]["owned_components"] == []

    def test_family_is_rejected_under_tight_rules(self):
        report = audit(divisor(), family_a(), refined(), mode="strong",
                       allow_noncomplementary=True, allow_nonstandard=True)
        assert report["verdict"] == "FAMILY_REJECTED"
        assert report["values"] == []
        assert not report["family_check"]["ok"]

    def test_well_behaved_family_is_consistent(self):
        report = audit(divisor(p=Perversity((0, 0, 1))), family_b(), refined(),
                       mode="weak")
        assert report["verdict"] == "CONSISTENT"
        assert [v["degree"] for v in report["values"]] == [0, 0]
        assert report["complementary"]
        assert "error_terms" not in report

    def test_nonstandard_perversity_needs_waiver(self):
        with pytest.raises(PerversityError, match="not standard"):
            audit(divisor(), family_a(), coarse(), mode="strong",
                  allow_noncomplementary=True)

    def test_mode_and_marked_values_are_validated(self):
        with pytest.raises(ValueError, match="weak or strong"):
            audit(divisor(), family_a(), coarse(), mode="loose",
                  allow_noncomplementary=True, allow_nonstandard=True)
        one = CycleFamily("single", family_a().total, "l", marked=(0,),
                          perversity=Perversity((1, 1, 1)))
        with pytest.raises(ValueError, match="two marked"):
            audit(divisor(), one, coarse(), mode="strong",
                  allow_noncomplementary=True, allow_nonstandard=True)


class TestCompareTowers:
    def test_extra_disjoint_blowup_changes_nothing(self):
        report = compare_towers(divisor(), alpha0(), [coarse(), longer()],
                                allow_noncomplementary=True)
        assert report["degrees"] == [1, 1]
        assert report["agree"]

    def test_diverging_towers_are_refused(self):
        other = ResolutionTower.affine(CONE, (CONE.parse("x^2 - y^2 + t*z^2"),))
        other.blow_up((CONE.var("x"), CONE.var("y"), CONE.var("t")))
        strat = Stratification(other, rules=())
        with pytest.raises(ValueError, match="diverge"):
            compare_towers(divisor(), alpha0(), [coarse(), strat],
                           allow_noncomplementary=True)


class TestPlanePairs:
    def test_lines_off_the_center_pair_cleanly(self):
        a = Cycle("h", Ideal.parse(PLANE, "y - 1"), Perversity.zero(2))
        b = Cycle("v", Ideal.parse(PLANE, "x - 1"), Perversity.top(2))
        report = pair(a, b, plane_strat())
        assert report["complementary"]
        assert report["degree"] == report["direct_degree"] == 1
        (entry,) = report["points"]
        assert entry["prime"].contains(PLANE.parse("x - 1"))
        assert entry["prime"].contains(PLANE.parse("y - 1"))

    def test_lines_through_the_center_separate(self):
        a = Cycle("d1", Ideal.parse(PLANE, "y - x"), Perversity((0, 1)))
        b = Cycle("d2", Ideal.parse(PLANE, "y + x"), Perversity((0, 1)))
        report = pair(a, b, plane_strat(), allow_noncomplementary=True)
        assert not report["complementary"]
        assert report["degree"] == 0
        assert report["direct_degree"] == 1
        assert report["charts"] == {}

    @pytest.mark.hashseed
    def test_rational_points_push_down_as_the_graph_elimination_does(self):
        # a rational point's image is its chart bindings evaluated there; the
        # graph elimination, which the conjugate pair x^2 = 2 still takes,
        # gives the same points with the same generators
        a = Cycle("h", Ideal.parse(PLANE, "y - 1"), Perversity.zero(2))
        b = Cycle("c", Ideal.parse(PLANE, "(x^2 - 2)*(x - 3)"), Perversity.top(2))
        charts = pair(a, b, plane_strat())["charts"]
        kinds = {pc.point is None for comps in charts.values() for pc in comps}
        assert kinds == {True, False}
        eliminated = {
            name: [replace(pc, point=None) for pc in comps] for name, comps in charts.items()
        }
        got, want = pushforward(plane_strat(), charts), pushforward(plane_strat(), eliminated)
        assert got == want
        assert [e["prime"].gens for e in got["points"]] == [
            e["prime"].gens for e in want["points"]
        ]
        assert [e["residue_degree"] for e in got["points"]] == [1, 2]

    def test_a_residue_degree_its_image_does_not_divide_is_refused(self):
        # the conjugate pair x^2 = -1 has residue degree 2 on the base, so a
        # point over it claimed rational would push down with multiplicity
        # 1 // 2 = 0; the check raises under python -O too
        strat = Stratification(ResolutionTower.affine(PLANE, ()), rules=("images",))
        pc = PrimaryComponent(Ideal.parse(PLANE, "x^2 + 1; y"), 1, 1, None)
        with pytest.raises(AssertionError, match="residue degree"):
            pushforward(strat, {"aff": [pc]})

    def test_direct_degree_of_overlap_is_undefined(self):
        line = Ideal.parse(PLANE, "y - x")
        assert direct_degree(plane_strat(), line, line) is None


def carried_charts(monkeypatch, carry: bool = True) -> dict:
    """chart name -> the components pair carries to it from its parent, or
    None where it does not, recorded from the next pair calls; with carry
    False, nothing is carried and every met leaf intersects itself."""
    carried = pairing._carried
    seen = {}

    def recording(chart, left, right, found):
        out = carried(chart, left, right, found) if carry else None
        seen[chart.name] = out
        return out

    monkeypatch.setattr(pairing, "_carried", recording)
    return seen


A1 = PolynomialRing(("x", "y", "z"))


@pytest.mark.hashseed
class TestCarriedPoints:
    @staticmethod
    def pair_or_error(a, b, strat):
        try:
            return pair(a, b, strat, allow_noncomplementary=True, check_perversity=False)
        except (CompleteIntersectionError, SmoothnessError) as exc:
            return type(exc), str(exc)

    def test_a_singular_parent_leaves_the_error_to_the_leaf(self, monkeypatch):
        # the A_1 cone xy = z^2 blown up at the smooth point (1, 1, 1): the
        # lines V(x, z) and V(y, z) meet at the vertex, which the center
        # misses and the first line too. The parent chart refuses the vertex,
        # so nothing is carried, and each leaf refuses it as it does when
        # nothing is carried at all
        tower = ResolutionTower.affine(A1, (A1.parse("x*y - z^2"),))
        tower.blow_up(tuple(Ideal.parse(A1, "x - 1; y - 1; z - 1").gens))
        strat = Stratification(tower, rules=("images",))
        a = Cycle("A", Ideal.parse(A1, "x; z"), Perversity.zero(2))
        b = Cycle("B", Ideal.parse(A1, "y; z"), Perversity.zero(2))
        leaf = tower.leaves[0]
        assert leaf.name == "aff/s1p0" and misses_center(leaf, a.ideal)
        seen = carried_charts(monkeypatch)
        got = self.pair_or_error(a, b, strat)
        assert seen == {"aff": None, "aff/s1p0": None}
        assert got == (
            SmoothnessError,
            "intersection point on chart aff/s1p0 sits where the chart is singular",
        )
        carried_charts(monkeypatch, carry=False)
        assert self.pair_or_error(a, b, strat) == got

    def test_irrational_parent_points_are_not_carried(self, monkeypatch):
        a = Cycle("h", Ideal.parse(PLANE, "y - 1"), Perversity.zero(2))
        b = Cycle("c", Ideal.parse(PLANE, "(x^2 - 2)*(x - 3)"), Perversity.top(2))
        seen = carried_charts(monkeypatch)
        got = pair(a, b, plane_strat())
        assert seen == {"aff": None, "aff/s1p0": None, "aff/s1p1": None}
        carried_charts(monkeypatch, carry=False)
        assert pair(a, b, plane_strat()) == got

    @pytest.mark.parametrize("refused", [("xp", "y"), ("x", "yp")])
    def test_the_complete_intersection_guard_runs_where_points_are_carried(
        self, monkeypatch, refused
    ):
        # the lines y = x - 1 and x = 1 meet at (1, 0), off the blown-up
        # origin, so both pivot charts are carried: aff/s1p1 (ring x, yp)
        # gets the point and aff/s1p0 (ring xp, y), where y = 0, gets none.
        # Both transforms on the chart with the refused ring fail the
        # complete-intersection test; only a chart with a point raises, as
        # it does when nothing is carried
        guard = pairing._is_complete_intersection
        monkeypatch.setattr(
            pairing,
            "_is_complete_intersection",
            lambda ideal: ideal.ring.names != refused and guard(ideal),
        )
        a = Cycle("A", Ideal.parse(PLANE, "y - x + 1"), Perversity.zero(2))
        b = Cycle("B", Ideal.parse(PLANE, "x - 1"), Perversity.zero(2))
        seen = carried_charts(monkeypatch)
        got = self.pair_or_error(a, b, plane_strat())
        assert seen["aff/s1p0"] == [] and len(seen["aff/s1p1"]) == 1
        if refused == ("xp", "y"):
            assert list(got["charts"]) == ["aff/s1p1"] and got["degree"] == 1
        else:
            assert got == (
                CompleteIntersectionError,
                "neither cycle on chart aff/s1p1 is cut by codimension many "
                "equations; multiplicities would be unreliable",
            )
        carried_charts(monkeypatch, carry=False)
        assert self.pair_or_error(a, b, plane_strat()) == got
