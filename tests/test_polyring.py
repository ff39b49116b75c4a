import operator
import pickle
import random
from fractions import Fraction

import pytest

from singpair import polyring
from singpair.errors import (
    ExactDivisionError,
    ExponentOverflowError,
    PolyParseError,
    RingMismatchError,
)
from singpair.polyring import (
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    exp_add,
    exp_divides,
    parse_many,
)


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


def test_strip_powers_divides_out_the_highest_power():
    x = R.var("x")
    assert ((x + 1) ** 3 * (x - 1)).strip_powers(x + 1) == (x - 1, 3)
    assert ((x + 1) ** 3 * (x - 1)).strip_powers(x - 1) == ((x + 1) ** 3, 1)
    # x divides the leading monomial x^2, but x + 2 does not divide x^2 + 1
    assert (x**2 + 1).strip_powers(x + 2) == (x**2 + 1, 0)
    with pytest.raises(ValueError):
        (x**2).strip_powers(R.const(2))


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


def test_homogenize_adds_terms_that_meet():
    # z and 1 both land on z, so homogenizing by z must add them
    Q = PolynomialRing(("x", "z"))
    assert Q.parse("z + 1").homogenize(Q, "z") == Q.parse("2*z")
    assert Q.parse("z^2 - z + x").homogenize(Q, "z") == Q.parse("x*z")
    assert Q.parse("z - 1").homogenize(Q, "z").is_zero()


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


def test_polynomials_survive_pickling():
    E = R.with_order(MonomialOrder.elim(2))
    for p in (R.parse("x + 1/2"), R.zero(), E.parse("x*y - 3")):
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.ring == p.ring
        assert back.terms == p.terms
        assert [type(c) for c in back.terms.values()] == [type(c) for c in p.terms.values()]
        if not p.is_zero():
            assert back.leading_monomial() == p.leading_monomial()


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
    # the images of x and y have two terms each: y^2 is expanded once for
    # both terms that hold it, and each term's image is the product of its
    # expanded powers, scaled by the coefficient as it is added in
    f = R.parse("3*x*y^2 - y^2 + y + 5")
    bindings = {"x": R.parse("x + t"), "y": R.parse("y - z")}
    powers, products = [], []
    power, mul_terms = polyring._power, polyring._mul_terms

    def counting_power(base, exponent, times):
        powers.append((dict(base), exponent))
        return power(base, exponent, times)

    def counting_mul_terms(a, b):
        products.append((len(a), len(b)))
        return mul_terms(a, b)

    monkeypatch.setattr(polyring, "_power", counting_power)
    monkeypatch.setattr(polyring, "_mul_terms", counting_mul_terms)
    monkeypatch.setattr(Polynomial, "__mul__", None)  # no Polynomial temporaries
    got = f.substitute(bindings)
    monkeypatch.undo()
    assert got == reference_substitute(f, bindings, R)
    assert sorted((len(b), k) for b, k in powers) == [(2, 1), (2, 1), (2, 2)]
    assert len({(tuple(b), k) for b, k in powers}) == 3
    # squaring y - z, then x + t times (y - z)^2: never a one-term factor
    assert products == [(2, 2), (2, 3)]


def expanding_substitute(f, bindings, ring=None):
    """substitute as every image is expanded: the image of each variable a
    term uses is raised to its power (each distinct power once) and the
    powers are multiplied as polynomials."""
    if ring is None:
        ring = next((v.ring for v in bindings.values() if isinstance(v, Polynomial)), f.ring)
    images = {}
    for name, value in bindings.items():
        f.ring.index(name)
        if not isinstance(value, Polynomial):
            images[name] = ring.const(value)
        elif value.ring != ring:
            raise RingMismatchError("binding values must share the target ring")
        else:
            images[name] = value
    for name in sorted(f.variables_used(), key=f.ring.index):
        if name not in images:
            images[name] = ring.var(name)
    powers = {}
    one = ring.one()
    out = {}
    for e, c in f.terms.items():
        piece = one
        for name, k in zip(f.ring.names, e):
            if k:
                if (name, k) not in powers:
                    powers[(name, k)] = images[name] ** k
                piece = powers[(name, k)] if piece is one else piece * powers[(name, k)]
        for m, v in piece.terms.items():
            s = out.get(m, 0) + c * v
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return Polynomial(ring, out)


def random_image(rng, ring):
    """A zero, constant, one-term or multi-term image in ring."""
    kind = rng.choice(("zero", "constant", "scalar", "variable", "monomial", "poly", "poly"))
    if kind == "zero":
        return rng.choice((0, ring.zero()))
    if kind == "constant":
        return ring.const(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
    if kind == "scalar":
        return rng.choice((rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.choice((1, 2)))))
    if kind == "variable":
        return ring.var(rng.choice(ring.names))
    if kind == "monomial":
        e = tuple(rng.choice((0, 0, 1, 2)) for _ in ring.names)
        return Polynomial(ring, {e: Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))})
    return small_poly(rng, ring)


def test_substitute_matches_the_expanding_reference():
    # seeded bindings of every image kind into the source ring, a target
    # with the names permuted, and targets with passenger names around them:
    # the same terms, in the same order, as expanding every image
    rng = random.Random("substitute-moves")
    source = PolynomialRing(("x", "y", "z", "w"))
    targets = [
        source,
        PolynomialRing(("w", "z", "y", "x"), MonomialOrder.lex()),
        PolynomialRing(("a", "x", "y", "z", "w", "b"), MonomialOrder.elim(1)),
        PolynomialRing(("z", "u", "x", "w", "v", "y")),
    ]
    kinds = set()
    for _ in range(400):
        f = small_poly(rng, source)
        if rng.random() < 0.3:
            f = f * small_poly(rng, source)  # more terms meet and cancel
        target = rng.choice(targets)
        names = rng.sample(source.names, rng.randint(0, 4))
        bindings = {n: random_image(rng, target) for n in names}
        for v in bindings.values():
            size = len(v.terms) if isinstance(v, Polynomial) else int(v != 0)
            kinds.add(min(size, 2))
        passed = target if rng.random() < 0.8 or not bindings else None
        got = f.substitute(bindings, passed)
        want = expanding_substitute(f, bindings, passed)
        assert same_terms(got, want), (f, bindings)
        assert all(in_convention(c) for c in got.terms.values())
    assert kinds == {0, 1, 2}
    # the three errors: a binding for a variable the source lacks, a used
    # unbound variable the target lacks, a value in another ring
    f = source.parse("x*y - 2*z")
    narrow = PolynomialRing(("x", "y"))
    cases = [
        ({"q": source.var("x")}, None, KeyError),
        ({"x": narrow.var("y")}, narrow, KeyError),
        ({"x": source.var("y")}, narrow, RingMismatchError),
        ({"x": narrow.var("y"), "y": source.var("x")}, None, RingMismatchError),
    ]
    for bindings, target, error in cases:
        for run in (f.substitute, lambda b, r: expanding_substitute(f, b, r)):
            with pytest.raises(error):
                run(bindings, target)


def reference_strip_powers(p, f):
    """Divide by f with exact_div until it no longer divides."""
    k = 0
    while True:
        try:
            p = p.exact_div(f)
        except ExactDivisionError:
            return p, k
        k += 1


@pytest.mark.parametrize(
    "order", (MonomialOrder.grevlex(), MonomialOrder.lex(), MonomialOrder.elim(2)), ids=str
)
def test_strip_powers_by_a_monomial_matches_repeated_division(order):
    # f = c*x^a with c other than 1 and -1, a on one or more variables,
    # applied to f^k * g for g that f may or may not divide again
    rng = random.Random(f"strip-{order}")
    ring = PolynomialRing(("x", "y", "z"), order)
    stripped = set()
    for _ in range(300):
        a = tuple(rng.choice((0, 0, 1, 2)) for _ in ring.names)
        if not any(a):
            continue
        c = rng.choice((1, -1, 2, -3, Fraction(3, 2), Fraction(-1, 4)))
        f = Polynomial(ring, {a: c})
        g = small_poly(rng, ring)
        if g.is_zero():
            continue
        p = f ** rng.randint(0, 3) * g
        got = p.strip_powers(f)
        want = reference_strip_powers(p, f)
        assert got == want, (p, f)
        assert all(in_convention(v) for v in got[0].terms.values())
        stripped.add(min(got[1], 2))
    assert stripped == {0, 1, 2}
    x = ring.var("x")
    # nothing to strip hands back the polynomial itself
    p = ring.parse("x*y + z")
    assert p.strip_powers(2 * x) == (p, 0) and p.strip_powers(2 * x)[0] is p
    with pytest.raises(ValueError):
        ring.zero().strip_powers(3 * x)
    with pytest.raises(ValueError):
        p.strip_powers(ring.const(Fraction(1, 2)))


# -- the coefficient convention: an int when integral, a Fraction otherwise ------


def in_convention(c):
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)


def test_random_operations_keep_the_coefficient_convention():
    # seeded chains of operations on int and half-integer coefficients: each
    # result holds ints exactly where it is integral and takes the value the
    # operation gives at a rational point
    rng = random.Random("convention")
    ring = PolynomialRing(("x", "y", "z"))
    wide = PolynomialRing(("w", "z", "y", "x"), MonomialOrder.elim(1))
    point = {"x": Fraction(2, 3), "y": Fraction(-1, 2), "z": 3, "w": Fraction(5, 7)}

    def scalar():
        return rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4)))))

    def value(p):
        return p.evaluate(point)

    pool = [small_poly(rng, ring) for _ in range(8)]
    done = set()
    for _ in range(600):
        p, q, c = rng.choice(pool), rng.choice(pool), scalar()
        op = rng.choice((
            "add", "sub", "mul", "scale", "rscale", "shift", "rshift", "pow", "neg",
            "monic", "exact_div", "substitute", "differentiate", "in_ring",
        ))
        if op == "add":
            got, want = p + q, value(p) + value(q)
        elif op == "sub":
            got, want = p - q, value(p) - value(q)
        elif op == "mul":
            got, want = p * q, value(p) * value(q)
        elif op == "scale":
            got, want = p * c, value(p) * c
        elif op == "rscale":
            got, want = c * p, value(p) * c
        elif op == "shift":
            got, want = p + c, value(p) + c
        elif op == "rshift":
            got, want = c - p, c - value(p)
        elif op == "pow":
            k = rng.randint(0, 3)
            got, want = p**k, value(p) ** k
        elif op == "neg":
            got, want = -p, -value(p)
        elif op == "monic":
            if p.is_zero():
                continue
            got, want = p.monic(), value(p) / p.leading_coefficient()
        elif op == "exact_div":
            if q.is_zero():
                continue
            got, want = (p * q).exact_div(q), value(p)
        elif op == "substitute":
            got = p.substitute({"x": q, "y": c})
            want = p.evaluate({**point, "x": value(q), "y": c})
        elif op == "differentiate":
            name = rng.choice(ring.names)
            got = p.differentiate(name)
            want = value(reference_differentiate(p, name))
        else:
            got, want = p.in_ring(wide).in_ring(ring), value(p)
            assert got == p
        assert all(in_convention(c) for c in got.terms.values()), (op, got)
        assert value(got) == want, (op, p, q, c)
        done.add(op)
        if 0 <= got.total_degree() <= 5 and len(got.terms) <= 12:
            pool[rng.randrange(len(pool))] = got
    assert len(done) == 14
    assert any(type(c) is int for p in pool for c in p.terms.values())
    assert any(type(c) is Fraction for p in pool for c in p.terms.values())


def test_floats_and_other_non_rationals_are_refused():
    x = R.var("x")
    with pytest.raises(TypeError):
        R.const(0.1)
    with pytest.raises(TypeError):
        Polynomial(R, {(1, 0, 0, 0): 0.5})
    with pytest.raises(TypeError):
        Polynomial(R, {(1, 0, 0, 0): "1"})
    with pytest.raises(TypeError):
        x.substitute({"y": 0.5})
    with pytest.raises(TypeError):
        x.evaluate({"x": 0.1})
    assert x.evaluate({"x": Fraction(1, 10)}) == Fraction(1, 10)
    for op in (operator.add, operator.sub, operator.mul):
        for bad in (0.5, "a"):
            with pytest.raises(TypeError):
                op(x, bad)
            with pytest.raises(TypeError):
                op(bad, x)
    assert x != 0.5 and not x == 1.0
    # what the constructor keeps: no zeros, ints for integral values
    p = Polynomial(R, {(1, 0, 0, 0): Fraction(4, 2), (0, 0, 0, 0): 0, (0, 1, 0, 0): True})
    assert p.terms == {(1, 0, 0, 0): 2, (0, 1, 0, 0): 1}
    assert all(type(c) is int for c in p.terms.values())
    assert type(R.const(Fraction(-6, 3)).constant_value()) is int
    assert R.zero().constant_value() == 0


def test_in_ring_moves_by_one_cached_map_per_pair_of_name_tuples():
    polyring._transport.cache_clear()
    source = PolynomialRing(("x", "y", "z"))
    target = PolynomialRing(("z", "w", "x", "y"), MonomialOrder.lex())
    f = source.parse("x^2*y - 3/2*z + 4")
    # variables reordered, and the one the source lacks reads 0
    g = f.in_ring(target)
    assert g == target.parse("x^2*y - 3/2*z + 4") and g.ring == target
    assert f.in_ring(target) == g and (2 * f).in_ring(target) == 2 * g
    assert polyring._transport.cache_info().misses == 1
    assert polyring._transport.cache_info().maxsize is not None
    # unused variables are dropped, and a used one the target lacks is refused
    plane = PolynomialRing(("y", "x"))
    assert source.parse("x - y^2").in_ring(plane) == plane.parse("x - y^2")
    with pytest.raises(KeyError, match=r"variable 'z' not in ring QQ\[y, x; grevlex\]"):
        f.in_ring(plane)
    assert source.parse("7").in_ring(PolynomialRing(("y",))) == PolynomialRing(("y",)).const(7)
    # the same names in another order: same terms, another ring
    lex = source.with_order(MonomialOrder.lex())
    assert f.in_ring(lex).ring == lex and f.in_ring(lex).terms == f.terms


# -- packed monomials ----------------------------------------------------------

PACKED_ORDERS = (
    MonomialOrder.lex(), MonomialOrder.grevlex(), MonomialOrder.elim(1), MonomialOrder.elim(3)
)


def random_exponent_pairs(rng, n, count):
    """Pairs (a, b) of exponent tuples; in about a third of them a divides b."""
    for _ in range(count):
        a = tuple(rng.choice((0, 0, 1, 2, rng.randint(0, 20))) for _ in range(n))
        if rng.random() < 0.35:
            b = exp_add(a, tuple(rng.choice((0, 0, 1, 3)) for _ in range(n)))
        else:
            b = tuple(rng.choice((0, 0, 1, 2, rng.randint(0, 20))) for _ in range(n))
        yield a, b


@pytest.mark.parametrize("order", PACKED_ORDERS, ids=str)
def test_packed_monomials_follow_the_order_and_exponent_arithmetic(order):
    rng = random.Random(f"pack-{order}")
    n = 5
    packing = order.packing(n)
    assert packing is order.packing(n)  # built once per order and variable count
    divisible = 0
    for a, b in random_exponent_pairs(rng, n, 3000):
        pa, pb = packing.pack(a), packing.pack(b)
        assert (pa < pb) == (order.sort_key(a) < order.sort_key(b))
        assert (pa == pb) == (a == b)
        assert packing.check(pa + pb - packing.zero) == packing.pack(exp_add(a, b))
        assert packing.divides(pa, pb) == exp_divides(a, b)
        assert packing.divides(pb, pa) == exp_divides(b, a)
        assert packing.unpack(pa) == a and packing.unpack(pb) == b
        divisible += exp_divides(a, b)
    assert divisible > 500
    assert packing.pack((0,) * n) == packing.zero


@pytest.mark.parametrize("order", PACKED_ORDERS, ids=str)
def test_narrow_fields_refuse_what_they_cannot_hold(order):
    # 3-bit fields hold exponents and block degrees up to 3
    n = 4
    packing = order.packing(n, bits=3)
    assert packing.limit == 3
    a, b = (1, 0, 0, 0), (0, 1, 0, 1)
    fits = packing.pack(a) + packing.pack(b) - packing.zero
    assert packing.check(fits) == packing.pack((1, 1, 0, 1))
    with pytest.raises(ExponentOverflowError):
        packing.pack((4, 0, 0, 0))
    with pytest.raises(ExponentOverflowError):
        packing.pack((0, 0, 0, 9))
    # (0, 0, 0, 2) squared needs a 4 in the last variable's field: check()
    # refuses it before a further product carries it into the next field
    over = 2 * packing.pack((0, 0, 0, 2)) - packing.zero
    with pytest.raises(ExponentOverflowError):
        packing.check(over)
    assert packing.unpack(2 * over - packing.zero) != (0, 0, 0, 8)
    # a block degree above 3, every exponent within 3
    heavy_block = {"grevlex": (1, 1, 1, 1), "elim(1)": (0, 2, 2, 0), "elim(3)": (2, 2, 0, 0)}
    if str(order) in heavy_block:
        with pytest.raises(ExponentOverflowError):
            packing.pack(heavy_block[str(order)])
