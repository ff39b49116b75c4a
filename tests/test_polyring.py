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


def reference_substitute(f, bindings, ring):
    """Each term's image starts from the constant ring.const(c) and takes one
    power at a time; the images are added to a running sum."""
    want = ring.zero()
    for e, c in f.terms.items():
        piece = ring.const(c)
        for name, k in zip(f.ring.names, e):
            if k:
                image = bindings[name] if name in bindings else ring.var(name)
                if isinstance(image, Fraction):
                    image = ring.const(image)
                piece = piece * image ** k
        want = want + piece
    return want


def test_substitute_accumulates_in_term_order():
    C = PolynomialRing(("x", "yp", "zp", "t"))
    f = R.parse("x^2 - y^2 + t*z^2 + 3*x*y - y*z + 2")
    bindings = {"y": C.parse("yp*x + 1"), "z": C.parse("zp*x - yp")}
    got = f.substitute(bindings, C)
    want = reference_substitute(f, bindings, C)
    assert got == want and list(got.terms) == list(want.terms)
    # small random inputs, where terms cancel and images may be scalars or zero
    rng = random.Random("substitute")
    source = PolynomialRing(("x", "y", "z"))
    target = PolynomialRing(("x", "u", "v"))
    for _ in range(300):
        f = small_poly(rng, source)
        bindings = {
            "y": small_poly(rng, target),
            "z": rng.choice((small_poly(rng, target), Fraction(rng.randint(-2, 2)))),
        }
        got = f.substitute(bindings, target)
        assert same_terms(got, reference_substitute(f, bindings, target))


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


# -- arithmetic against the accumulate-into-a-default-zero loops ---------------


def reference_add(p, q):
    terms = dict(p.terms)
    for e, c in q.terms.items():
        s = terms.get(e, Fraction(0)) + c
        if s == 0:
            terms.pop(e, None)
        else:
            terms[e] = s
    return Polynomial(p.ring, terms)


def reference_mul(p, q):
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return Polynomial(p.ring, terms)


def reference_pow(p, k):
    """Square-and-multiply from 1, squaring once more after the last bit."""
    result, base = p.ring.one(), p
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def reference_differentiate(p, name):
    i = p.ring.index(name)
    terms = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        new = list(e)
        new[i] -= 1
        key = tuple(new)
        s = terms.get(key, Fraction(0)) + c * e[i]
        if s == 0:
            terms.pop(key, None)
        else:
            terms[key] = s
    return Polynomial(p.ring, terms)


def same_terms(got, want):
    return got == want and list(got.terms.items()) == list(want.terms.items())


def small_poly(rng, ring):
    # few monomials and coefficients, so sums and products often cancel
    return Polynomial(ring, {
        tuple(rng.randint(0, 2) for _ in ring.names): Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        for _ in range(rng.randint(0, 5))
    })


def test_add_mul_differentiate_match_reference_when_terms_cancel():
    rng = random.Random("cancel")
    ring = PolynomialRing(("x", "y", "z"))
    cancelled = 0
    for _ in range(300):
        p, q = small_poly(rng, ring), small_poly(rng, ring)
        for a, b in ((p, q), (p, -p), (p, q - p), (p - q, p + q)):
            total = a + b
            assert same_terms(total, reference_add(a, b))
            product = a * b
            assert same_terms(product, reference_mul(a, b))
            cancelled += len(total.terms) < len(set(a.terms) | set(b.terms))
            for name in ring.names:
                assert same_terms(a.differentiate(name), reference_differentiate(a, name))
    assert cancelled > 100
    x, y = ring.var("x"), ring.var("y")
    assert (x - y) * (x + y) == x * x - y * y
    assert (x + y) + (-x - y) == ring.zero()


def test_power_matches_reference_term_for_term():
    rng = random.Random("pow")
    ring = PolynomialRing(("x", "y", "z"))
    samples = [ring.zero(), ring.const(Fraction(-3, 2)), ring.one(), ring.parse("x - y + 2")]
    samples += [small_poly(rng, ring) for _ in range(12)]
    for p in samples:
        repeated = ring.one()
        for k in range(10):
            got = p ** k
            assert got == repeated
            assert same_terms(got, reference_pow(p, k))
            repeated = repeated * p


def test_power_multiplies_only_what_it_needs(monkeypatch):
    calls = []
    mul = Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    p = R.parse("x - 2*y + t")
    for k, needed in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4)]:
        calls.clear()
        p ** k
        assert len(calls) == needed, k


def test_substitute_multiplies_powers_not_constants(monkeypatch):
    f = R.parse("3*x*y^2 - y + 5")
    bindings = {"x": R.parse("x + t"), "y": R.parse("y - z")}
    calls = []
    mul = Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    f.substitute(bindings)
    # y^2 is one product and x*y^2 another; no term is multiplied by its coefficient
    assert len(calls) == 2
