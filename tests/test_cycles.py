"""Perversity checks, minimal perversities, family checks, error terms."""

from fractions import Fraction
from functools import cache

import pytest

from singpair.blowup import ResolutionTower
from singpair.cycles import (
    Cycle,
    CycleFamily,
    ErrorComponent,
    Perversity,
    error_terms,
    minimal_perversity,
    perversity_check,
    strong_family_check,
    weak_family_check,
)
from singpair.errors import PerversityError
from singpair.ideals import Ideal
from singpair.polyring import PolynomialRing
from singpair.strata import Stratification

CONE = PolynomialRing(("x", "y", "z", "t"))
CONE_L = PolynomialRing(("x", "y", "z", "t", "l"))


def same_variety(a: Ideal, b: Ideal) -> bool:
    return a.variety_contained_in(b) and b.variety_contained_in(a)


@cache
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


def diagonal_slice() -> Ideal:
    # the surface x = y, t = 0, contains the singular line
    return Ideal.parse(CONE, "x - y; t")


def family_a() -> CycleFamily:
    total = Ideal.parse(CONE_L, "x - y - z^2; t + x + y; t - l")
    return CycleFamily("A", total, "l", marked=(0, 1), perversity=Perversity((1, 1, 1)))


def family_b() -> CycleFamily:
    total = Ideal.parse(CONE_L, "x - y; z; t - l")
    return CycleFamily("B", total, "l", marked=(1, 2), perversity=Perversity((0, 1, 1)))


class TestPerversity:
    def test_named_constructions(self):
        assert Perversity.zero(3).values == (0, 0, 0)
        assert Perversity.top(3).values == (0, 1, 2)

    def test_indexing_is_by_codimension(self):
        p = Perversity((0, 1, 1))
        assert p[1] == 0 and p[3] == 1
        with pytest.raises(IndexError):
            p[0]
        with pytest.raises(IndexError):
            p[4]

    def test_standard_shapes(self):
        assert Perversity.top(4).is_standard()
        assert Perversity.zero(4).is_standard()
        assert Perversity((0, 1, 1)).is_standard()
        assert not Perversity((1, 1, 1)).is_standard()  # nonzero start
        assert not Perversity((0, 0, 2)).is_standard()  # jump of two
        assert not Perversity((0, 2, 2)).is_standard()  # above the top row

    def test_complement(self):
        assert Perversity.zero(3).complement() == Perversity.top(3)
        assert Perversity((0, 1, 1)).complement() == Perversity((0, 0, 1))
        assert Perversity((0, 1, 1)).is_complementary_to(Perversity((0, 0, 1)))
        assert not Perversity((0, 1, 1)).is_complementary_to(Perversity((0, 1, 1)))
        with pytest.raises(PerversityError):
            Perversity((1, 1, 1)).complement()

    def test_rejects_bad_entries(self):
        with pytest.raises(PerversityError):
            Perversity(())
        with pytest.raises(PerversityError):
            Perversity((0, -1))


class TestPerversityCheck:
    def test_slice_passes_zero_on_coarse(self):
        report = perversity_check(diagonal_slice(), coarse(), Perversity.zero(3))
        assert report["ok"]
        assert report["cycle_dimension"] == 2

    def test_slice_fails_zero_on_refined(self):
        report = perversity_check(diagonal_slice(), refined(), Perversity.zero(3))
        assert not report["ok"]
        bad = [e for e in report["entries"] if not e["ok"]]
        assert bad and all(e["codim"] == 3 for e in bad)
        # through the vertex: a point hits the depth 3 stratum
        assert bad[0]["intersection_dimension"] == 0
        assert bad[0]["bound"] == -1

    def test_empty_cycle_is_vacuous(self):
        empty = Ideal.parse(CONE, "x; x - 1")
        report = perversity_check(empty, refined(), Perversity.zero(3))
        assert report["ok"] and report["cycle_dimension"] is None

    def test_wrong_length_is_rejected(self):
        with pytest.raises(PerversityError):
            perversity_check(diagonal_slice(), refined(), Perversity.zero(2))

    def test_minimal_perversity_of_slice(self):
        assert minimal_perversity(diagonal_slice(), refined()) == Perversity((0, 0, 1))
        assert minimal_perversity(diagonal_slice(), coarse()) == Perversity.zero(3)

    def test_minimal_perversity_of_curve_through_vertex(self):
        curve = Ideal.parse(CONE, "x - y - z^2; x + y; t")
        assert minimal_perversity(curve, refined()) == Perversity.top(3)
        report = perversity_check(curve, refined(), Perversity.top(3))
        assert report["ok"]

    def test_cycle_inside_first_level_has_no_standard_perversity(self):
        line = Ideal.parse(CONE, "x; y; z")
        assert minimal_perversity(line, refined()) is None
        assert minimal_perversity(line, coarse()) is None


class TestFamilyChecks:
    def test_weak_check_of_line_family(self):
        report = weak_family_check(family_b(), refined())
        assert report["ok"]
        assert [f["value"] for f in report["fibers"]] == [1, 2]
        # same fibers are too deep for the zero perversity
        report = weak_family_check(family_b(), refined(), Perversity.zero(3))
        assert not report["ok"]

    def test_strong_check_passes_on_coarse(self):
        report = strong_family_check(family_a(), coarse())
        assert report["ok"]
        assert report["family_dimension"] == 1
        # the eliminant over the singular line picks out the bad value
        assert Fraction(0) in report["special_values"]
        assert Fraction(1) in report["special_values"]

    def test_strong_check_fails_on_refined(self):
        report = strong_family_check(family_a(), refined())
        assert not report["ok"]
        bad = [e for e in report["entries"] if not e.get("ok", True)]
        assert bad and all(e["codim"] == 3 for e in bad)

    def test_strong_check_sees_domination(self):
        report = strong_family_check(family_b(), coarse())
        assert report["ok"]
        dominating = [e for e in report["entries"] if e["dominates"]]
        assert dominating
        generic = [c for e in dominating for c in e["checks"] if c["at"] == "generic"]
        assert all(c["dim"] == 0 for c in generic)

    def test_strong_check_factors_a_degree_nine_eliminant(self):
        # over the singular line the family meets the pieces where
        # l^9 - l = l (l - 1) (l + 1) (l^2 + 1) (l^4 + 1) vanishes, one degree
        # past the strict factoring scope; the roots come off the linear factors
        total = Ideal.parse(CONE_L, "x - y; z; x - l^9 + l")
        family = CycleFamily("N", total, "l", perversity=Perversity((0, 1, 1)))
        report = strong_family_check(family, coarse())
        assert report["special_values"] == [-1, 0, 1]
        assert report["entries"]
        for entry in report["entries"]:
            assert [c["at"] for c in entry["checks"]] == ["l^2 + 1", "l^4 + 1", -1, 0, 1]

    def test_family_without_perversity_is_rejected(self):
        total = Ideal.parse(CONE_L, "x - y; z; t - l")
        bare = CycleFamily("bare", total, "l")
        with pytest.raises(PerversityError):
            weak_family_check(bare, refined())

    def test_projective_towers_are_rejected(self):
        ring = PolynomialRing(("s", "t", "x", "y", "z"))
        tower = ResolutionTower.projective(ring, (ring.parse("s*x^2 - s*y^2 + t*z^2"),))
        strat = Stratification(tower, rules=())
        with pytest.raises(ValueError):
            strong_family_check(family_a(), strat, Perversity.zero(strat.top))


class TestErrorTerms:
    def test_specialization_at_zero_has_one_owned_error(self):
        report = error_terms(family_a(), refined(), 0)
        owned = report["owned_components"]
        assert len(owned) == 1
        err = owned[0]
        assert err.chart == "aff/s1p0"
        want = Ideal.parse(owned[0].ideal.ring, "t; z; xp - yp")
        assert same_variety(err.ideal, want)
        # the extra line sits over the vertex, inside the singular locus
        assert same_variety(err.image, Ideal.parse(CONE, "x; y; z; t"))
        assert err.over_x1
        assert report["all_over_x1"]
        # every chart sees the same curve through its own window
        assert len(report["components"]) == 3

    def test_specialization_at_one_is_clean(self):
        report = error_terms(family_a(), refined(), 1)
        assert report["components"] == []
        assert report["all_over_x1"]
        assert report["matched"]

    def test_matched_parts_include_the_proper_transform(self):
        report = error_terms(family_a(), refined(), 0)
        p0 = [ideal for name, ideal in report["matched"] if name == "aff/s1p0"]
        assert len(p0) == 1
        want = Ideal.parse(p0[0].ring, "t; yp + 1/2*z; xp - 1/2*z")
        assert same_variety(p0[0], want)
