import pickle
import random
from fractions import Fraction

import pytest

from singpair.errors import ExactDivisionError, PolyParseError, RingMismatchError
from singpair.polyring import MonomialOrder, Polynomial, PolynomialRing, parse_many


R = PolynomialRing(("x", "y", "z", "t"))


def test_parse_and_print_round_trip():
    f = R.parse("x^2 - y^2 + t*z^2")
    # t*z^2 has total degree 3, so it leads under grevlex
    assert str(f) == "z^2*t + x^2 - y^2"
    assert R.parse(str(f)) == f


def test_parse_fraction_coefficients_and_powers():
    f = R.parse("3/4*x**2 - 2*y + 1/2")
    assert f.terms[(2, 0, 0, 0)] == Fraction(3, 4)
    assert f.terms[(0, 1, 0, 0)] == Fraction(-2)
    assert f.terms[(0, 0, 0, 0)] == Fraction(1, 2)


def test_parse_rejects_unknown_variable_with_offset():
    with pytest.raises(PolyParseError) as err:
        R.parse("x + w")
    assert err.value.offset == 4


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PolyParseError):
        R.parse("x + ")
    with pytest.raises(PolyParseError):
        R.parse("x ) y")


def test_difference_of_squares():
    x, y = R.var("x"), R.var("y")
    assert (x + y) * (x - y) == R.parse("x^2 - y^2")


def test_power_and_unary_minus():
    assert R.parse("(x - y)^3") == R.parse("x^3 - 3*x^2*y + 3*x*y^2 - y^3")
    assert R.parse("-x - -y") == R.var("y") - R.var("x")


def test_grevlex_leading_monomial():
    f = R.parse("x^2 - y^2 + t*z^2")
    assert f.leading_monomial() == (0, 0, 2, 1)  # degree 3 beats degree 2
    g = R.parse("x^2 - y^2 + z^2")
    # equal degrees: grevlex prefers smaller late exponents
    assert g.leading_monomial() == (2, 0, 0, 0)
    assert g.leading_coefficient() == 1


def test_lex_order_differs():
    L = R.with_order(MonomialOrder.lex())
    f = L.parse("y^3 + x")
    assert f.leading_monomial() == (1, 0, 0, 0)
    g = R.parse("y^3 + x")
    assert g.leading_monomial() == (0, 3, 0, 0)


def test_elim_order_prefers_block_variables():
    # eliminate x: any monomial containing x beats any monomial without it
    E = R.with_order(MonomialOrder.elim(1))
    f = E.parse("x + y^5")
    assert f.leading_monomial() == (1, 0, 0, 0)


def test_substitute_blowup_chart_form():
    # x -> x, y -> yp*x, z -> zp*x turns the cone equation into x^2 * (chart equation)
    C = PolynomialRing(("x", "yp", "zp", "t"))
    f = R.parse("x^2 - y^2 + t*z^2")
    g = f.substitute({"y": C.parse("yp*x"), "z": C.parse("zp*x")}, C)
    assert g == C.parse("x^2*(1 - yp^2 + t*zp^2)")
    assert g.exact_div(C.parse("x^2")) == C.parse("1 - yp^2 + t*zp^2")


def test_exact_div_rejects_inexact():
    with pytest.raises(ExactDivisionError):
        R.parse("x^2 + y").exact_div(R.parse("x"))


def test_ring_mismatch_is_detected():
    other = PolynomialRing(("x", "y"))
    with pytest.raises(RingMismatchError):
        R.var("x") + other.var("x")


def test_evaluate_and_differentiate():
    f = R.parse("x^2 - y^2 + t*z^2")
    assert f.evaluate({"x": 2, "y": 1, "z": 3, "t": Fraction(1, 9)}) == 4
    assert f.differentiate("z") == R.parse("2*t*z")
    assert f.differentiate("t") == R.parse("z^2")


def test_homogenize_and_back():
    P = PolynomialRing(("s", "x", "y", "z", "t"))
    f = PolynomialRing(("x", "y", "z", "t")).parse("x^2 - y^2 + t*z^2 + 1")
    h = f.homogenize(P, "s")
    assert h.is_homogeneous()
    assert h == P.parse("s*x^2 - s*y^2 + t*z^2 + s^3")


def test_in_ring_transport_by_name():
    small = PolynomialRing(("y", "x"))
    f = small.parse("x - y^2")
    g = f.in_ring(R)
    assert g == R.parse("x - y^2")
    assert g.ring == R


def test_in_ring_moves_exponents_like_substitution():
    rng = random.Random(5)
    wide = PolynomialRing(("a", "x", "y", "z", "t"), MonomialOrder.elim(1))
    for _ in range(20):
        f = Polynomial(R, {
            tuple(rng.randint(0, 3) for _ in range(4)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(0, 8))
        })
        g = f.in_ring(wide)
        want = f.substitute({}, wide)
        assert g == want and list(g.terms) == list(want.terms)
        back = g.in_ring(R)
        assert back == f and list(back.terms) == list(f.terms)
    # variables the polynomial does not use may be dropped; used ones may not
    assert R.parse("x - y^2").in_ring(PolynomialRing(("y", "x"))).ring.names == ("y", "x")
    with pytest.raises(KeyError):
        R.parse("x - t").in_ring(PolynomialRing(("x", "y")))


def test_substitute_accumulates_in_term_order():
    C = PolynomialRing(("x", "yp", "zp", "t"))
    f = R.parse("x^2 - y^2 + t*z^2 + 3*x*y - y*z + 2")
    bindings = {"y": C.parse("yp*x + 1"), "z": C.parse("zp*x - yp")}
    got = f.substitute(bindings, C)
    # reference: add the image of each term to a running sum
    want = C.zero()
    for e, c in f.terms.items():
        piece = C.const(c)
        for name, k in zip(R.names, e):
            if k:
                piece = piece * (bindings[name] if name in bindings else C.var(name)) ** k
        want = want + piece
    assert got == want and list(got.terms) == list(want.terms)


def test_rings_stay_picklable_after_use():
    E = R.with_order(MonomialOrder.elim(2))
    f = E.parse("x*y + z^3 - t")
    assert f.leading_monomial() == (1, 1, 0, 0)
    assert pickle.loads(pickle.dumps(E)) == E


def test_parse_many_semicolon_list():
    gens = parse_many("x - y; t;; ", R)
    assert gens == [R.parse("x - y"), R.var("t")]


def test_polynomial_is_immutable_and_hashable():
    f = R.parse("x + y")
    with pytest.raises(AttributeError):
        f.terms = {}
    assert hash(f) == hash(R.parse("y + x"))


def test_constant_handling():
    assert R.parse("0").is_zero()
    assert R.parse("5 - 5").is_zero()
    assert R.parse("7/2").constant_value() == Fraction(7, 2)
    assert str(R.zero()) == "0"
    assert str(R.parse("-x - 3")) == "-x - 3"
