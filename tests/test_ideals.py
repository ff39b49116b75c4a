import random
from fractions import Fraction
from heapq import heappop, heappush

import pytest

from singpair import ideals
from singpair.errors import (
    BudgetExceededError,
    EmptyVarietyError,
    NotZeroDimensionalError,
)
from singpair.ideals import (
    _charge,
    _interreduce,
    Ideal,
    fresh_name,
    groebner,
    normal_form,
    reduction_budget,
    s_polynomial,
)
from singpair.polyring import (
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
)


R3 = PolynomialRing(("x", "y", "z"))
R4 = PolynomialRing(("x", "y", "z", "t"))


def test_groebner_is_reduced_and_sorted():
    I = Ideal.parse(R3, "x^2 - y; x^3 - z")
    gb = I.groebner()
    key = R3.order.sort_key
    assert all(g.leading_coefficient() == 1 for g in gb)
    lms = [key(g.leading_monomial()) for g in gb]
    assert lms == sorted(lms)
    # no leading monomial divides another and tails are fully reduced
    for i, g in enumerate(gb):
        rest = gb[:i] + gb[i + 1 :]
        assert normal_form(g, rest) == g


def test_groebner_closes_under_s_polynomials():
    I = Ideal.parse(R3, "x^2 - y; x^3 - z")
    gb = I.groebner()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero()


def test_groebner_idempotent_and_order_independent_of_input():
    a = Ideal.parse(R3, "x^2 - y; x^3 - z").groebner()
    b = Ideal.parse(R3, "x^3 - z; x^2 - y").groebner()
    assert a == b
    assert groebner(list(a)) == a


def test_trivial_ideal_detection():
    assert Ideal.parse(R3, "x; x + 1").is_trivial()
    assert Ideal.parse(R3, "x - y").is_trivial() is False
    assert Ideal(R3).is_zero()


def test_normal_form_membership():
    I = Ideal.parse(R3, "x^2 - y")
    assert I.normal_form(R3.parse("x^2*y")) == R3.parse("y^2")
    assert I.contains(R3.parse("x^4 - y^2"))
    assert not I.contains(R3.var("x"))


def test_elimination_projects_a_parametrized_curve():
    I = Ideal.parse(R3, "x - z; y - z^2")
    J = I.eliminate({"z"})
    small = PolynomialRing(("x", "y"))
    assert J == Ideal.parse(small, "x^2 - y")


def test_intersection_of_coordinate_ideals():
    I = Ideal.parse(R3, "x").intersect(Ideal.parse(R3, "y"))
    assert I == Ideal.parse(R3, "x*y")


def test_quotient_colon_ideal():
    I = Ideal.parse(R3, "x*y")
    assert I.quotient(R3.var("x")) == Ideal.parse(R3, "y")


def test_saturation_and_exponent():
    I = Ideal.parse(R3, "x*y^2; x^2*y")
    S = I.saturate(R3.var("y"))
    assert S == Ideal.parse(R3, "x")
    assert I.saturation_exponent(R3.var("y")) == 2
    assert Ideal.parse(R3, "x^2*y").saturate(R3.var("y")) == Ideal.parse(R3, "x^2")


def test_saturate_ideal_multi_generator():
    # total transform of the cone under one chart, saturated by the exceptional pair
    I = Ideal.parse(R3, "x*z; y*z")
    S = I.saturate_ideal(Ideal.parse(R3, "x; y"))
    assert S == Ideal.parse(R3, "z")
    with pytest.raises(ValueError):
        I.saturate_ideal(Ideal.parse(R3, "x; x + 1"))


def test_radical_membership():
    I = Ideal.parse(R3, "x^2")
    assert I.radical_contains(R3.var("x"))
    assert not I.radical_contains(R3.var("y"))
    assert Ideal.parse(R4, "x^2 - y^2 + t*z^2").radical_contains(R4.parse("x^2 - y^2 + t*z^2"))


def test_variety_containment():
    line = Ideal.parse(R3, "x; y")
    plane = Ideal.parse(R3, "x^2")
    assert line.variety_contained_in(plane)
    assert not plane.variety_contained_in(line)


def test_krull_dimension():
    assert Ideal.parse(R4, "x^2 - y^2 + t*z^2").krull_dimension() == 3
    assert Ideal.parse(R4, "x; y; z").krull_dimension() == 1
    assert Ideal.parse(R4, "x; y; z; t").krull_dimension() == 0
    assert Ideal(R4).krull_dimension() == 4
    with pytest.raises(EmptyVarietyError):
        Ideal.parse(R4, "x; x + 1").krull_dimension()
    assert Ideal.parse(R4, "x; x + 1").dimension_or_none() is None


def test_vector_space_dimension():
    assert Ideal.parse(R3, "x^2; y^3; z").vector_space_dimension() == 6
    two = PolynomialRing(("x", "y"))
    assert Ideal.parse(two, "x^2 + 1; y - x").vector_space_dimension() == 2
    with pytest.raises(NotZeroDimensionalError):
        Ideal.parse(R3, "x").vector_space_dimension()
    assert Ideal.parse(R3, "x; x + 1").vector_space_dimension() == 0


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError):
        with reduction_budget(3):
            Ideal.parse(R3, "x^3 - 2*x*y; x^2*y - 2*y^2 + x").groebner()


def test_budget_scope_restores():
    with reduction_budget(10_000) as meter:
        Ideal.parse(R3, "x^2 - y; x^3 - z").groebner()
        assert meter.used > 0
    # ambient meter gone: a fresh default budget applies
    Ideal.parse(R3, "x^3 - 2*x*y; x^2*y - 2*y^2 + x").groebner()


def test_fresh_name_avoids_collisions():
    assert fresh_name(("x", "y")) == "_t"
    assert fresh_name(("_t", "_t0")) == "_t1"


def test_ideal_equality_and_hash_by_canonical_basis():
    a = Ideal.parse(R3, "x - y; y - z")
    b = Ideal.parse(R3, "x - z; y - z")
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical_key() == b.canonical_key()


# -- the in-place kernel against a reference that rebuilds at every step -------


def _nested_grevlex(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def reference_key(order):
    """The order as nested tuples: grevlex of a block is (degree, negated
    reversed exponents), elim compares its two blocks in turn."""
    if order.kind == "lex":
        return lambda exps: exps
    if order.kind == "grevlex":
        return _nested_grevlex
    k = order.block
    return lambda exps: (_nested_grevlex(exps[:k]), _nested_grevlex(exps[k:]))


def reference_normal_form(f, basis):
    """First-divisor division that rescans for the leading monomial and
    rebuilds the whole polynomial at every step."""
    if not basis:
        return f
    ring = f.ring
    key = reference_key(ring.order)

    def lm_of(p):
        return max(p.terms, key=key)

    lead = [(lm_of(g), g.terms[lm_of(g)], g) for g in basis]
    p = f
    remainder = ring.zero()
    while not p.is_zero():
        lm = lm_of(p)
        for lm_g, lc_g, g in lead:
            if exp_divides(lm_g, lm):
                t = Polynomial(ring, {exp_sub(lm, lm_g): p.terms[lm] / lc_g})
                p = p - t * g
                _charge()
                break
        else:
            lt = Polynomial(ring, {lm: p.terms[lm]})
            remainder = remainder + lt
            p = p - lt
    return remainder


def reference_exact_div(f, other):
    key = reference_key(f.ring.order)
    lm_o = max(other.terms, key=key)
    quotient = f.ring.zero()
    rem = f
    while not rem.is_zero():
        lm_r = max(rem.terms, key=key)
        assert exp_divides(lm_o, lm_r)
        t = Polynomial(f.ring, {exp_sub(lm_r, lm_o): rem.terms[lm_r] / other.terms[lm_o]})
        quotient = quotient + t
        rem = rem - t * other
    return quotient


ORDERS = (MonomialOrder.lex(), MonomialOrder.grevlex(), MonomialOrder.elim(1), MonomialOrder.elim(2))


def random_poly(rng, ring, terms, degree):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, degree) for _ in ring.names)
        out[exps] = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
    return Polynomial(ring, out)


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_sort_keys_order_like_nested_reference(order):
    rng = random.Random(str(order))
    ring = PolynomialRing(("a", "b", "c", "d"), order)
    monos = sorted({tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(200)})
    ascending = sorted(monos, key=reference_key(order))
    assert sorted(monos, key=order.sort_key) == ascending
    assert sorted(monos, key=order.descending_key) == ascending[::-1]
    f = Polynomial(ring, {e: Fraction(1) for e in monos})
    assert f.leading_monomial() == ascending[-1]


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_normal_form_matches_reference(order):
    rng = random.Random(f"nf-{order}")
    ring = PolynomialRing(("a", "b", "c", "d"), order)
    steps = 0
    for _ in range(40):
        basis = [random_poly(rng, ring, rng.randint(1, 5), 3) for _ in range(rng.randint(1, 4))]
        basis = [g for g in basis if not g.is_zero()]
        f = random_poly(rng, ring, rng.randint(0, 12), 5)
        with reduction_budget(10**6) as new_meter:
            got = normal_form(f, basis)
        with reduction_budget(10**6) as old_meter:
            want = reference_normal_form(f, basis)
        assert got == want
        assert list(got.terms) == list(want.terms)  # same insertion order
        assert new_meter.used == old_meter.used
        steps += new_meter.used
    assert steps > 100


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_s_polynomial_matches_reference(order):
    rng = random.Random(f"spoly-{order}")
    ring = PolynomialRing(("a", "b", "c", "d"), order)
    for _ in range(40):
        f = random_poly(rng, ring, rng.randint(1, 6), 3)
        g = random_poly(rng, ring, rng.randint(1, 6), 3)
        if f.is_zero() or g.is_zero():
            continue
        for f, g in ((f, g), (f.monic(), g.monic()), (f, f)):
            lm_f, lm_g = f.leading_monomial(), g.leading_monomial()
            l = tuple(map(max, lm_f, lm_g))
            mf = Polynomial(ring, {exp_sub(l, lm_f): 1 / f.leading_coefficient()})
            mg = Polynomial(ring, {exp_sub(l, lm_g): 1 / g.leading_coefficient()})
            assert s_polynomial(f, g) == mf * f - mg * g


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_exact_div_matches_reference(order):
    rng = random.Random(f"div-{order}")
    ring = PolynomialRing(("a", "b", "c", "d"), order)
    for _ in range(30):
        f = random_poly(rng, ring, rng.randint(1, 6), 3)
        g = random_poly(rng, ring, rng.randint(1, 6), 3)
        if f.is_zero() or g.is_zero():
            continue
        got = (f * g).exact_div(g)
        assert got == f
        assert list(got.terms) == list(reference_exact_div(f * g, g).terms)


def cyclic(n):
    ring = PolynomialRing(tuple(f"x{i}" for i in range(n)))
    x = ring.gens()
    gens = []
    for k in range(1, n):
        total = ring.zero()
        for i in range(n):
            term = ring.one()
            for j in range(k):
                term = term * x[(i + j) % n]
            total = total + term
        gens.append(total)
    prod = ring.one()
    for v in x:
        prod = prod * v
    return ring, gens + [prod - 1]


def katsura(n):
    ring = PolynomialRing(tuple(f"u{i}" for i in range(n + 1)))
    u = ring.gens()

    def at(k):
        return u[abs(k)] if abs(k) <= n else ring.zero()

    first = ring.zero()
    for l in range(-n, n + 1):
        first = first + at(l)
    gens = [first - 1]
    for m in range(n):
        total = ring.zero()
        for l in range(-n, n + 1):
            total = total + at(l) * at(m - l)
        gens.append(total - at(m))
    return ring, gens


@pytest.mark.parametrize(
    "system, steps, dim, roots",
    [(cyclic(4), 30, 1, None), (katsura(4), 534, 0, 16)],
    ids=["cyclic-4", "katsura-4"],
)
def test_standard_systems_take_pinned_step_counts(system, steps, dim, roots):
    # the step count is the budget unit; a change of pair order or divisor
    # choice in the kernel would move it
    ring, gens = system
    ideal = Ideal(ring, gens)
    with reduction_budget(10**6) as meter:
        ideal.groebner()
    assert meter.used == steps
    assert ideal.dimension_or_none() == dim
    if roots is not None:
        assert ideal.vector_space_dimension() == roots


def reference_buchberger(gens):
    """Buchberger with the normal strategy under every order: the pair with
    the smallest lcm first, ties broken by (i, j); otherwise as the kernel."""
    ring = gens[0].ring
    key = ring.order.sort_key
    basis = [g.monic() for g in _interreduce(gens)]
    if any(g.is_constant() for g in basis):
        return (ring.one(),)
    lead = [g.leading_monomial() for g in basis]
    pending = set()
    queue = []

    def add_pair(i, j):
        lcm = exp_lcm(lead[i], lead[j])
        pending.add((i, j))
        heappush(queue, (key(lcm), i, j, lcm))

    for j in range(len(basis)):
        for i in range(j):
            add_pair(i, j)
    while queue:
        _, i, j, lcm_ij = heappop(queue)
        pending.discard((i, j))
        if exp_add(lead[i], lead[j]) == lcm_ij:
            continue
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not exp_divides(lead[k], lcm_ij):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        r = r.monic()
        if r.is_constant():
            return (ring.one(),)
        basis.append(r)
        lead.append(r.leading_monomial())
        new = len(basis) - 1
        for k in range(new):
            add_pair(k, new)
    return _interreduce(basis)


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_groebner_matches_normal_strategy_reference(order):
    # a reduced basis is unique, so the pair order may shorten the path to it
    # but never change it; under grevlex the pair order is the reference's
    rng = random.Random(f"gb-{order}")
    ring = PolynomialRing(("a", "b", "c"), order)
    steps = 0
    for _ in range(30):
        gens = [random_poly(rng, ring, rng.randint(1, 4), 2) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        with reduction_budget(10**6) as new_meter:
            got = groebner(gens)
        with reduction_budget(10**6) as old_meter:
            want = reference_buchberger(gens)
        assert got == want
        assert [list(g.terms) for g in got] == [list(g.terms) for g in want]
        if order.degree_compatible:
            assert new_meter.used == old_meter.used
        steps += old_meter.used
    assert steps > 100


def test_elimination_order_takes_pinned_step_count():
    # katsura-3 under elim(2) takes 181 steps by sugar; the normal strategy
    # of the reference takes 256 to the same basis
    ring, gens = katsura(3)
    ring = ring.with_order(MonomialOrder.elim(2))
    gens = [g.in_ring(ring) for g in gens]
    with reduction_budget(10**6) as meter:
        gb = groebner(gens)
    with reduction_budget(10**6) as old_meter:
        assert reference_buchberger(gens) == gb
    assert meter.used == 181
    assert old_meter.used == 256


def test_only_grevlex_is_degree_compatible():
    assert MonomialOrder.grevlex().degree_compatible
    assert not MonomialOrder.lex().degree_compatible
    assert not MonomialOrder.elim(1).degree_compatible


def test_reduced_basis_shares_exponents_and_coefficients():
    ideals._pool.clear()
    ring, gens = katsura(3)
    gb = Ideal(ring, gens).groebner()
    exps, coeffs = {}, {}
    for g in gb:
        for e, c in g.terms.items():
            assert exps.setdefault(e, e) is e
            assert coeffs.setdefault(c, c) is c
    assert len(exps) < sum(len(g.terms) for g in gb)
    # sharing changes storage only: each element equals a freshly parsed copy
    for g in gb:
        fresh = ring.parse(str(g))
        assert fresh == g and hash(fresh) == hash(g)
    # the same basis computed again, in an equal ring, reuses the stored objects
    again = Ideal(*katsura(3)).groebner()
    assert again == gb
    for g, h in zip(gb, again):
        assert all(e is f for e, f in zip(g.terms, h.terms))
        assert all(c is d for c, d in zip(g.terms.values(), h.terms.values()))


def test_storage_pool_is_emptied_once_full(monkeypatch):
    monkeypatch.setattr(ideals, "_POOL_LIMIT", 5)
    ideals._pool.clear()
    ideals._share_storage([R3.parse("x^2 + 2*y + 3")])
    assert len(ideals._pool) == 6  # three exponent tuples, three coefficients
    ideals._share_storage([R3.parse("z + 5")])
    assert len(ideals._pool) == 4  # over the limit, so emptied before this basis


def reference_interreduce(polys):
    """Interreduction that divides every element by the others in every pass
    until a pass changes nothing; returns the basis and the number of passes."""
    basis = [p.monic() for p in polys if not p.is_zero()]
    passes = 0
    changed = True
    while changed:
        passes += 1
        changed = False
        out = []
        for i, p in enumerate(basis):
            q = normal_form(p, out + basis[i + 1 :])
            if q.is_zero():
                changed = True
                continue
            q = q.monic()
            if q != p:
                changed = True
            out.append(q)
        basis = out
    if basis:
        key = basis[0].ring.order.sort_key
        basis.sort(key=lambda g: key(g.leading_monomial()))
    return tuple(basis), passes


def shuffled_terms(rng, p):
    """p scaled by a constant, its terms in a random insertion order."""
    items = list(p.terms.items())
    rng.shuffle(items)
    scale = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
    return Polynomial(p.ring, {e: c * scale for e, c in items})


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_interreduce_matches_fixpoint_reference(order):
    rng = random.Random(f"interreduce-{order}")
    ring = PolynomialRing(("a", "b", "c", "d"), order)
    small = PolynomialRing(("a", "b", "c"), order)
    cases = []
    for _ in range(60):
        cases.append([random_poly(rng, ring, rng.randint(1, 6), 3) for _ in range(rng.randint(1, 5))])
    for _ in range(20):
        # already reduced: a reduced basis, rescaled, its terms out of order
        gb = groebner([random_poly(rng, small, rng.randint(1, 4), 2) for _ in range(3)])
        cases.append([shuffled_terms(rng, g.in_ring(ring)) for g in gb])
    for _ in range(20):
        # an element that another one reduces to zero, and a repeated element
        f, g = (random_poly(rng, ring, rng.randint(2, 4), 2) for _ in range(2))
        if not f.is_zero():
            cases.append([shuffled_terms(rng, f * g), shuffled_terms(rng, f)])
            cases.append([f, shuffled_terms(rng, f), g])
    seen_passes = set()
    steps = 0
    for polys in cases:
        with reduction_budget(10**6) as new_meter:
            got = _interreduce(polys)
        with reduction_budget(10**6) as old_meter:
            want, passes = reference_interreduce(polys)
        assert got == want
        assert new_meter.used == old_meter.used
        seen_passes.add(passes)
        steps += old_meter.used
    assert {1, 2, 3} <= seen_passes
    assert steps > 100


def test_groebner_returns_shared_storage():
    # the storage pool is applied to the basis groebner() returns, also to
    # the unit ideal's basis and to an input that is already reduced
    rng = random.Random("shared")
    for gens in (cyclic(4)[1], [R3.parse("x + 1"), R3.parse("x - 1")], [R3.parse("x^2 - y*z")]):
        ideals._pool.clear()
        for g in groebner(gens):
            for e, c in g.terms.items():
                assert ideals._pool[e] is e and ideals._pool[c] is c
    ring = PolynomialRing(("a", "b", "c"), MonomialOrder.lex())
    gens = [random_poly(rng, ring, 3, 2) for _ in range(3)]
    first = groebner(gens)
    again = groebner(list(reversed(gens)))
    assert again == first
    for g, h in zip(first, again):
        assert all(e is f for e, f in zip(g.terms, h.terms))
        assert all(c is d for c, d in zip(g.terms.values(), h.terms.values()))
