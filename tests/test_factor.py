import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from singpair import factor as factor_module
from singpair.errors import FactorScopeError
from singpair.factor import _xu_bezout, factor, is_irreducible
from singpair.polyring import Polynomial, PolynomialRing


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
    f = R1.parse("(x^2 - 2)^2 * (x^2 + 1)^3 * (x - 3)")
    const, factors = factor(f)
    assert const == 1
    assert _as_set(factors) == {("x^2 - 2", 2), ("x^2 + 1", 3), ("x - 3", 1)}


def test_content_and_leading_constant():
    const, factors = factor(R1.parse("6*x^2 - 6"))
    assert const == 6
    assert _as_set(factors) == {("x - 1", 1), ("x + 1", 1)}
    const, factors = factor(R1.parse("1/2*x^2 - 1/2"))
    assert const == Fraction(1, 2)


def test_univariate_scope_gate():
    # x^4 + 1 splits modulo every prime, so its factor is found only by
    # lifting to p^k and recombining
    const, factors = factor(R1.parse("x^8 - 1"))
    assert const == 1
    assert _as_set(factors) == {("x - 1", 1), ("x + 1", 1), ("x^2 + 1", 1), ("x^4 + 1", 1)}
    # the degree is not bounded
    const, factors = factor(R1.parse("x^9 - 1"))
    assert _as_set(factors) == {("x - 1", 1), ("x^2 + x + 1", 1), ("x^6 + x^3 + 1", 1)}


def test_degree_twenty_product():
    # the squarefree gcd runs on Polynomial; unless each remainder is made
    # monic, its coefficients grow at every step and this takes minutes
    f = R1.parse(
        "(2*x^3 + 3*x - 5)*(5*x^4 - 3*x^2 + 7)*(x^5 + 2*x - 1)"
        "*(3*x^4 - x + 2)*(x^4 + x^3 - 2)"
    )
    start = time.perf_counter()
    const, factors = factor(f)
    assert time.perf_counter() - start < 5
    assert const == 30
    assert [(str(g), m) for g, m in factors] == [
        ("x - 1", 2),
        ("x^2 + x + 5/2", 1),
        ("x^3 + 2*x^2 + 2*x + 2", 1),
        ("x^4 - 1/3*x + 2/3", 1),
        ("x^4 - 3/5*x^2 + 7/5", 1),
        ("x^5 + 2*x - 1", 1),
    ]


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
    const, factors = factor(R3.parse("(x + y*z)^2 * (x - z)"))
    assert const == 1
    assert _as_set(factors) == {("y*z + x", 2), ("x - z", 1)}


def test_trivariate_gcd_keeps_coefficients_small():
    # the squarefree test gcd(f, df/dx) on this quartic ran out of memory when
    # each pseudo-remainder carried an extra power of the leading coefficient
    f = R3.parse("16*x^4 + 32*x^3*y - 12*x^3 - 24*x^2*y - 8*x^2*z + 2*x^2 + 4*x*y + 6*x*z - z")
    const, factors = factor(f)
    assert const == 16
    assert _as_set(factors) == {("x - 1/2", 1), ("x - 1/4", 1), ("x^2 + 2*x*y - 1/2*z", 1)}


@pytest.mark.parametrize(
    "names", list(itertools.permutations(("x", "y", "z"))), ids="".join
)
def test_trivariate_quartic_factors_in_every_variable_order(names):
    # with x first in the ring, the gcds pseudo-divided in x, of degree 4,
    # and did not finish in 40 s; y and z have degree 2
    ring = PolynomialRing(names)
    first, second = ring.parse("-3*x^2 - 4*y*z - 2"), ring.parse("x^2 + x*y - 3*x*z - 1")
    start = time.perf_counter()
    const, factors = factor(first * second)
    assert time.perf_counter() - start < 5
    assert {(g, m) for g, m in factors} == {(first.monic(), 1), (second.monic(), 1)}
    assert const == first.leading_coefficient() * second.leading_coefficient()


def test_linear_in_a_variable():
    # primitive and linear in x: irreducible, with no gcd or lift
    assert is_irreducible(R3.parse("x*y^2 + z^3 + y"))
    # linear in x, but both coefficients in x share the factor y + 1
    const, factors = factor(R3.parse("(y + 1)*(x*y + z)"))
    assert const == 1
    assert _as_set(factors) == {("y + 1", 1), ("x*y + z", 1)}


def test_trivariate_irreducible_quadric():
    # rank-3 quadric: does not factor
    assert is_irreducible(R3.parse("x^2 - y^2 + z"))


def test_multivariate_scope_gate():
    # the total degree is not bounded, only the number of variables
    assert is_irreducible(R2.parse("x^5 + y^5 + 1"))
    with pytest.raises(FactorScopeError):
        factor(R4.parse("x*y*z*t"))


def test_fraction_coefficients_bivariate():
    const, factors = factor(R2.parse("1/4*x^2 - 1/9*y^2"))
    assert const == Fraction(1, 4)
    assert _as_set(factors) == {("x - 2/3*y", 1), ("x + 2/3*y", 1)}


def test_a_wrong_factorization_fails_the_multiply_back_check(monkeypatch):
    # an explicit raise, so the check holds under python -O too
    f = R1.parse("x^2 + 1")
    monkeypatch.setattr(factor_module, "_factor_in_ring", lambda g: (1, [(R1.parse("x + 1"), 1)]))
    with pytest.raises(AssertionError, match="product check"):
        factor(f)


def test_bezout_pair_divides_int_coefficients_exactly():
    # the remainder 5 of x^2 + 1 by x + 2 has an int leading coefficient,
    # which the extended Euclid divides by exactly, not to a float
    ring = PolynomialRing(("x", "u"))
    g, h = ring.parse("x^2 + 1"), ring.parse("x + 2")
    s, t = _xu_bezout(g, h, "x", "u")
    assert s * g + t * h == ring.one()
    assert s == ring.parse("1/5") and t == ring.parse("2/5 - 1/5*x")


def _random_polynomial(rng, ring, degree, squares=False):
    """Small integer coefficients on the monomials of total degree at most
    degree; with squares, every variable's square has a nonzero one."""
    while True:
        terms = {}
        for e in itertools.product(range(degree + 1), repeat=ring.nvars):
            if sum(e) <= degree:
                square = squares and sorted(e)[-1] == 2 == sum(e)
                terms[e] = rng.choice((-3, -2, -1, 1, 2, 3) if square else (0, 0, -2, -1, 1, 2))
        f = Polynomial(ring, terms)
        if not f.is_constant():
            return f


def _property_cases():
    """Seeded pairs (f, g) in one, two and three variables. In the last
    four, both are quadrics that square every variable, so no variable of
    f*g is linear and the product is factored through the Kronecker
    packing."""
    rng = random.Random(17)
    shapes = [(R1, 4, False)] * 12 + [(R2, 3, False)] * 10 + [(R3, 2, False)] * 4
    shapes += [(R3, 2, True)] * 4
    return [
        tuple(
            _random_polynomial(rng, ring, 2 if squares else rng.randint(1, degree), squares)
            for _ in range(2)
        )
        for ring, degree, squares in shapes
    ]


def test_factor_of_a_product_merges_the_factorizations():
    for f, g in _property_cases():
        const_f, factors_f = factor(f)
        const_g, factors_g = factor(g)
        const, factors = factor(f * g)
        assert const == const_f * const_g, (f, g)
        merged = Counter(dict(factors_f)) + Counter(dict(factors_g))
        assert Counter(dict(factors)) == merged, (f, g)
