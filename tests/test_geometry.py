from fractions import Fraction

import pytest

from singpair.errors import ImproperIntersectionError
from singpair.geometry import (
    center_quadratic_form,
    dehomogenize,
    is_smooth,
    projective_rational_points,
    quadric_rank_drop,
    rational_points,
    radical_zero_dim,
    singular_locus,
    singular_points_avoid,
    zero_dim_decompose,
)
from singpair.ideals import Ideal
from singpair.polyring import PolynomialRing


R2 = PolynomialRing(("x", "y"))
R3 = PolynomialRing(("x", "y", "z"))
R4 = PolynomialRing(("x", "y", "z", "t"))


def test_decompose_single_reduced_point():
    comps = zero_dim_decompose(Ideal.parse(R2, "x - 1; y + 2"))
    assert len(comps) == 1
    c = comps[0]
    assert c.multiplicity == 1 and c.residue_degree == 1
    assert c.point == {"x": Fraction(1), "y": Fraction(-2)}


def test_decompose_fat_point():
    comps = zero_dim_decompose(Ideal.parse(R2, "x^2; y - 1"))
    assert len(comps) == 1
    assert comps[0].multiplicity == 2
    assert comps[0].residue_degree == 1
    assert comps[0].point == {"x": Fraction(0), "y": Fraction(1)}


def test_decompose_two_points_and_a_conjugate_pair():
    comps = zero_dim_decompose(Ideal.parse(R2, "(x - 1)*(x + 1)*(x^2 - 2); y"))
    rational = [c for c in comps if c.residue_degree == 1]
    irrational = [c for c in comps if c.residue_degree == 2]
    assert len(rational) == 2 and len(irrational) == 1
    assert sum(c.local_length for c in comps) == 4
    assert {c.point["x"] for c in rational} == {Fraction(1), Fraction(-1)}


def test_decompose_mixed_multiplicity():
    comps = zero_dim_decompose(Ideal.parse(R2, "x^2*(x - 1); y"))
    by_mult = {c.multiplicity: c for c in comps}
    assert set(by_mult) == {1, 2}
    assert by_mult[2].point["x"] == 0
    assert by_mult[1].point["x"] == 1


def test_radical_zero_dim():
    rad = radical_zero_dim(Ideal.parse(R2, "x^2; y^3"))
    assert rad == Ideal.parse(R2, "x; y")


def test_rational_points_sorted():
    pts = rational_points(Ideal.parse(R2, "x^2 - 1; y - x"))
    assert pts == [
        {"x": Fraction(-1), "y": Fraction(-1)},
        {"x": Fraction(1), "y": Fraction(1)},
    ]


def test_singular_locus_of_cone():
    # the quadric cone in four variables is singular exactly along x = y = z = 0
    X = Ideal.parse(R4, "x^2 - y^2 + t*z^2")
    sing = singular_locus(X)
    line = Ideal.parse(R4, "x; y; z")
    assert sing.variety_contained_in(line) and line.variety_contained_in(sing)
    assert not is_smooth(X)


def test_smooth_hypersurface():
    assert is_smooth(Ideal.parse(R3, "x^2 + y^2 + z + 1"))
    assert is_smooth(Ideal(R3))  # the whole space


def test_singular_points_avoid():
    X = Ideal.parse(R4, "x^2 - y^2 + t*z^2")
    good = Ideal.parse(R4, "x - 1; y - 1; z; t - 5")
    bad = Ideal.parse(R4, "x; y; z; t")
    assert singular_points_avoid(X, good)
    assert not singular_points_avoid(X, bad)


def test_center_quadratic_form_of_cone():
    f = R4.parse("x^2 - y^2 + t*z^2")
    gens = (R4.var("x"), R4.var("y"), R4.var("z"))
    m = center_quadratic_form(f, gens)
    assert m is not None
    assert m[0][0] == R4.const(2)
    assert m[1][1] == R4.const(-2)
    assert m[2][2] == R4.parse("2*t")
    assert m[0][1].is_zero()
    det = quadric_rank_drop(m, R4)
    assert det == R4.var("t")


def test_center_quadratic_form_shifted_scaled():
    # center presented as (2x - 2, y + 1): same detector after normalization
    f = R2.parse("(x - 1)^2 - 3*(x - 1)*(y + 1) + 2*(y + 1)^2")
    m = center_quadratic_form(f, (R2.parse("2*x - 2"), R2.parse("y + 1")))
    assert m is not None
    assert m[0][0] == R2.parse("1/2")  # 2 * 1 / 4
    assert m[1][1] == R2.const(4)
    assert m[0][1] == R2.parse("-3/2")


def test_center_quadratic_form_rejects_bad_shapes():
    f = R2.parse("x^2 + y")
    assert center_quadratic_form(f, (R2.var("x"), R2.var("y"))) is None  # y-term degree 1
    assert center_quadratic_form(R2.parse("x^2"), (R2.parse("x + y"),)) is None


def test_projective_rational_points():
    P = PolynomialRing(("S", "T", "X", "Y", "Z"))
    # two incidences from the projective quadric corpus
    pt1 = projective_rational_points(
        tuple(P.parse(s) for s in ("X - Y", "T", "X", "Y", "Z"))
    )
    assert pt1 == [(1, 0, 0, 0, 0)]
    pt3 = projective_rational_points(
        tuple(P.parse(s) for s in ("X - Y", "T", "S", "Z"))
    )
    assert pt3 == [(0, 0, 1, 1, 0)]
    # irrelevant ideal: no points at all
    empty = projective_rational_points(
        tuple(P.parse(s) for s in ("X + Y", "S", "Z", "X", "T"))
    )
    assert empty == []


def test_dehomogenize_keeps_the_patch_ring_without_relations():
    P = PolynomialRing(("S", "T", "X"))
    patch = dehomogenize(Ideal(P, (P.parse("S*X - T^2"), P.parse("X^2 - X^2"))), "T")
    assert patch.ring.names == ("S", "X")
    assert patch.gens == (patch.ring.parse("S*X - 1"),)
    empty = dehomogenize(Ideal(P, ()), "S")
    assert empty.ring.names == ("T", "X")
    assert empty.is_zero()


def test_projective_positive_dimensional_rejected():
    P = PolynomialRing(("S", "T", "X"))
    with pytest.raises(ImproperIntersectionError):
        projective_rational_points((P.parse("X"),))
