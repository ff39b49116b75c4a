from fractions import Fraction

import pytest

from singpair.errors import FactorScopeError
from singpair.factor import factor, is_irreducible
from singpair.polyring import PolynomialRing


R1 = PolynomialRing(("x",))
R2 = PolynomialRing(("x", "y"))
R3 = PolynomialRing(("x", "y", "z"))
R4 = PolynomialRing(("x", "y", "z", "t"))


def _as_set(factors):
    return {(str(g), m) for g, m in factors}


def test_difference_of_squares():
    const, factors = factor(R1.parse("x^2 - 1"))
    assert const == 1
    assert _as_set(factors) == {("x - 1", 1), ("x + 1", 1)}


def test_irreducible_quadratic():
    assert is_irreducible(R1.parse("x^2 + 1"))
    const, factors = factor(R1.parse("x^2 + 1"))
    assert const == 1 and len(factors) == 1


def test_sixth_cyclotomic_split():
    const, factors = factor(R1.parse("x^6 - 1"))
    assert const == 1
    assert _as_set(factors) == {
        ("x - 1", 1),
        ("x + 1", 1),
        ("x^2 + x + 1", 1),
        ("x^2 - x + 1", 1),
    }


def test_recombination_needed():
    # mod every prime this splits further than over the rationals
    const, factors = factor(R1.parse("x^4 - 5*x^2 + 6"))
    assert _as_set(factors) == {("x^2 - 2", 1), ("x^2 - 3", 1)}


def test_multiplicities():
    const, factors = factor(R1.parse("(x - 1)^2 * (x + 2)^3"))
    assert const == 1
    assert _as_set(factors) == {("x - 1", 2), ("x + 2", 3)}
    # degree 11, past the univariate cap, so relaxed like the internal callers
    f = R1.parse("(x^2 - 2)^2 * (x^2 + 1)^3 * (x - 3)")
    const, factors = factor(f, relax_scope=True)
    assert const == 1
    assert _as_set(factors) == {("x^2 - 2", 2), ("x^2 + 1", 3), ("x - 3", 1)}


def test_content_and_leading_constant():
    const, factors = factor(R1.parse("6*x^2 - 6"))
    assert const == 6
    assert _as_set(factors) == {("x - 1", 1), ("x + 1", 1)}
    const, factors = factor(R1.parse("1/2*x^2 - 1/2"))
    assert const == Fraction(1, 2)


def test_univariate_scope_gate():
    with pytest.raises(FactorScopeError):
        factor(R1.parse("x^9 + x + 1"))
    # degree exactly 8 is allowed; x^4 + 1 splits modulo every prime, so its
    # factor is found only by lifting to p^k and recombining
    const, factors = factor(R1.parse("x^8 - 1"))
    assert const == 1
    assert _as_set(factors) == {("x - 1", 1), ("x + 1", 1), ("x^2 + 1", 1), ("x^4 + 1", 1)}


def test_bivariate_split_and_irreducible():
    const, factors = factor(R2.parse("x^2 - y^2"))
    assert _as_set(factors) == {("x - y", 1), ("x + y", 1)}
    assert is_irreducible(R2.parse("x^2 + y^2"))
    assert is_irreducible(R2.parse("x^2 - y^3"))


def test_bivariate_in_bigger_ring():
    # exceptional fiber of the cone: two lines
    const, factors = factor(R4.parse("x^2 - y^2"))
    assert _as_set(factors) == {("x - y", 1), ("x + y", 1)}


def test_monomial_content():
    const, factors = factor(R2.parse("x^3*y - x*y^3"))
    assert const == 1
    assert _as_set(factors) == {("x", 1), ("y", 1), ("x - y", 1), ("x + y", 1)}


def test_trivariate_products():
    const, factors = factor(R3.parse("z*x + z*y"))
    assert _as_set(factors) == {("z", 1), ("x + y", 1)}
    const, factors = factor(R3.parse("(x + y + z)*(x - y)"))
    assert _as_set(factors) == {("x + y + z", 1), ("x - y", 1)}
    # the product uses three variables, so its factors come through the packing
    const, factors = factor(R3.parse("(x + y*z)^2 * (x - z)"), relax_scope=True)
    assert const == 1
    assert _as_set(factors) == {("y*z + x", 2), ("x - z", 1)}


def test_trivariate_gcd_keeps_coefficients_small():
    # the squarefree test gcd(f, df/dx) on this quartic ran out of memory when
    # each pseudo-remainder carried an extra power of the leading coefficient
    f = R3.parse("16*x^4 + 32*x^3*y - 12*x^3 - 24*x^2*y - 8*x^2*z + 2*x^2 + 4*x*y + 6*x*z - z")
    const, factors = factor(f)
    assert const == 16
    assert _as_set(factors) == {("x - 1/2", 1), ("x - 1/4", 1), ("x^2 + 2*x*y - 1/2*z", 1)}


def test_trivariate_irreducible_quadric():
    # rank-3 quadric: does not factor
    assert is_irreducible(R3.parse("x^2 - y^2 + z"))


def test_multivariate_scope_gate():
    with pytest.raises(FactorScopeError):
        factor(R2.parse("x^5 + y^5 + 1"))
    with pytest.raises(FactorScopeError):
        factor(R4.parse("x*y*z*t"))


def test_fraction_coefficients_bivariate():
    const, factors = factor(R2.parse("1/4*x^2 - 1/9*y^2"))
    assert const == Fraction(1, 4)
    assert _as_set(factors) == {("x - 2/3*y", 1), ("x + 2/3*y", 1)}
