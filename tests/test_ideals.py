import itertools
import random
from fractions import Fraction
from heapq import heappop, heappush

import pytest

from singpair import ideals, polyring
from singpair.errors import (
    BudgetExceededError,
    EmptyVarietyError,
    ExactDivisionError,
    ExponentOverflowError,
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
)


def exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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


def reference_krull_dimension(ideal):
    """The largest variable subset containing no leading monomial's
    support, found by trying every subset, largest first."""
    supports = [{i for i, k in enumerate(g.leading_monomial()) if k} for g in ideal.groebner()]
    n = ideal.ring.nvars
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            if not any(s <= set(subset) for s in supports):
                return size


def test_krull_dimension_matches_subset_enumeration():
    # monomial ideals are their own reduced bases, so random monomials give
    # random staircases, with supports nested in one another among them
    rng = random.Random("krull")
    dims = set()
    for _ in range(300):
        ring = PolynomialRing(tuple(f"v{i}" for i in range(rng.randint(1, 8))))
        monomials = []
        for _ in range(rng.randint(0, 6)):
            m = ring.one()
            for v in rng.sample(ring.gens(), rng.randint(1, min(3, ring.nvars))):
                m = m * v ** rng.randint(1, 2)
            monomials.append(m)
        ideal = Ideal(ring, monomials)
        got = ideal.krull_dimension()
        assert got == reference_krull_dimension(ideal), monomials
        dims.add((ring.nvars, got))
    assert len(dims) >= 25, dims


def test_variety_containment_matches_radical_reference():
    # the answers the dimension refutes, and those it leaves to radical
    # membership, are the ones radical membership alone gives
    rng = random.Random("containment")
    ring = PolynomialRing(("a", "b", "c"))
    seen = set()
    for _ in range(80):
        mine, other = (
            Ideal(ring, [random_poly(rng, ring, rng.randint(1, 2), 2) for _ in range(rng.randint(1, 3))])
            for _ in range(2)
        )
        if rng.random() < 0.3:
            other = Ideal(ring, mine.gens[: rng.randint(1, len(mine.gens))])
        got = mine.variety_contained_in(other)
        assert got == all(reference_radical_contains(mine, g) for g in other.gens)
        d, e = mine.dimension_or_none(), other.dimension_or_none()
        refuted = d is not None and (e is None or d > e)
        seen.add((got, refuted))
    assert seen == {(True, False), (False, False), (False, True)}, seen


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
                t = Polynomial(ring, {exp_sub(lm, lm_g): Fraction(p.terms[lm]) / lc_g})
                p = p - t * g
                _charge()
                break
        else:
            lt = Polynomial(ring, {lm: p.terms[lm]})
            remainder = remainder + lt
            p = p - lt
    return remainder


def reference_s_polynomial(f, g):
    """lcm/lt(f) * f - lcm/lt(g) * g, by products of exponent-tuple polynomials."""
    key = reference_key(f.ring.order)
    lm_f, lm_g = max(f.terms, key=key), max(g.terms, key=key)
    lcm = exp_lcm(lm_f, lm_g)
    mf = Polynomial(f.ring, {exp_sub(lcm, lm_f): Fraction(1) / f.terms[lm_f]})
    mg = Polynomial(g.ring, {exp_sub(lcm, lm_g): Fraction(1) / g.terms[lm_g]})
    return mf * f - mg * g


def reference_exact_div(f, other):
    key = reference_key(f.ring.order)
    lm_o = max(other.terms, key=key)
    quotient = f.ring.zero()
    rem = f
    while not rem.is_zero():
        lm_r = max(rem.terms, key=key)
        assert exp_divides(lm_o, lm_r)
        t = Polynomial(f.ring, {exp_sub(lm_r, lm_o): Fraction(rem.terms[lm_r]) / other.terms[lm_o]})
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
            assert s_polynomial(f, g) == reference_s_polynomial(f, g)


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
    # dividends the default fields cannot hold, by an exponent above 127 or
    # (except under lex) a block degree above 127 whose exponents are all
    # below it: the fields widen until the dividend packs
    widen = [("a^130 - 1", "a - 1")]
    if order.kind != "lex":  # lex packs no block degree
        widen.append(("(b^50*c^50*d^50 + a^70*b^70 - 1/3)*(a*b^2 - 2*d + 1)", "a*b^2 - 2*d + 1"))
    for f, g in widen:
        f, g = ring.parse(f), ring.parse(g)
        with pytest.raises(ExponentOverflowError):
            [order.packing(ring.nvars).pack(e) for e in f.terms]
        got = f.exact_div(g)
        assert got * g == f
        assert list(got.terms) == list(reference_exact_div(f, g).terms)
    # inexact: a divisor that does not fit the dividend's fields, and (under
    # lex and elim) remainders whose exponents or block degrees outgrow them
    for f, g in (("a + 1", "a^200 - 1"), ("a^100", "a + d^100")):
        f, g = ring.parse(f), ring.parse(g)
        with pytest.raises(ExactDivisionError):
            f.exact_div(g)


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
    the smallest lcm first, ties broken by (i, j); otherwise as the kernel.
    It runs on exponent tuples and shares no code with the packed kernel."""
    ring = gens[0].ring
    key = ring.order.sort_key
    basis = list(reference_interreduce(gens)[0])
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
        r = reference_normal_form(reference_s_polynomial(basis[i], basis[j]), basis)
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
    return reference_interreduce(basis)[0]


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


def coprime_lead_input(rng, ring):
    """Generators whose interreduced leading monomials are often pairwise
    coprime: a power of its own variable and lower-degree terms each."""
    names = rng.sample(ring.names, rng.randint(1, len(ring.names)))
    gens = []
    for name in names:
        lead = ring.var(name) ** rng.randint(1, 3)
        tail = random_poly(rng, ring, rng.randint(0, 3), lead.total_degree() - 1)
        gens.append(lead * Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2))) + tail)
    return gens


@pytest.mark.hashseed
@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_coprime_leads_certify_the_interreduced_input(order, monkeypatch):
    # Buchberger's first criterion: when the interreduced input's leading
    # monomials are pairwise coprime it is the reduced basis; the kernel
    # with the certificate turned off gives the same terms and charges the
    # same steps
    rng = random.Random(f"coprime-{order}")
    ring = PolynomialRing(("a", "b", "c"), order)
    certify = ideals._coprime
    verdicts = []

    def recording(monomials):
        verdicts.append(certify(monomials))
        return verdicts[-1]

    certified = steps = 0
    for _ in range(60):
        if rng.random() < 0.7:
            gens = coprime_lead_input(rng, ring)
        else:
            gens = [random_poly(rng, ring, rng.randint(1, 3), 2) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        verdicts.clear()
        monkeypatch.setattr(ideals, "_coprime", recording)
        with reduction_budget(10**6) as meter:
            got = ideals._reduced_basis(gens)
        monkeypatch.setattr(ideals, "_coprime", lambda monomials: False)
        with reduction_budget(10**6) as bypassed:
            want = ideals._reduced_basis(gens)
        assert got == want
        assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in want]
        assert meter.used == bypassed.used
        certified += verdicts == [True]
        steps += meter.used
    assert certified > 30 and steps > 200, (certified, steps)
    # coprime leading monomials pass, a shared variable fails
    assert certify([(2, 0, 0), (0, 1, 3), (0, 0, 0)])
    assert not certify([(2, 0, 1), (0, 1, 3)])


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
    packing = R3.order.packing(R3.nvars)
    ideals._share_storage(R3, packing, [ideals._pack(packing, R3.parse("x^2 + 2*y + 3"))])
    assert len(ideals._pool) == 6  # three exponent tuples, three coefficients
    ideals._share_storage(R3, packing, [ideals._pack(packing, R3.parse("z + 5"))])
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
            q = reference_normal_form(p, out + basis[i + 1 :])
            if q.is_zero():
                changed = True
                continue
            q = q.monic()
            if q != p:
                changed = True
            else:
                q = p  # left as it is, its terms in their order
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


def in_convention(c):
    """A coefficient is a nonzero int when integral, a Fraction otherwise."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)


def test_every_producer_gives_ints_exactly_when_integral(monkeypatch):
    # the inputs mix ints, halves and integral Fractions, so that Fraction
    # sums, products and quotients come out integral along the way; the
    # storage pool starts empty, so that no int stored by an earlier test
    # stands in for an integral Fraction
    monkeypatch.setattr(ideals, "_pool", {})
    ring = PolynomialRing(("x", "y", "z"), MonomialOrder.lex())
    x, y, z = ring.gens()
    half = Fraction(1, 2)
    f = Polynomial(ring, {(2, 0, 0): 2, (0, 1, 0): -4, (0, 0, 0): 6})
    g = Polynomial(ring, {(1, 1, 0): 3, (0, 0, 1): Fraction(4, 2)})
    h = ring.parse("x*z - 1/2*y^2 + 6/3")
    p = Polynomial(ring, {(2, 0, 0): 2, (0, 0, 0): 6})
    assert p.monic() == ring.parse("x^2 + 3")
    results = {
        "parse": [h, ring.parse("1/2*x + 1/2*x"), ring.parse("4/2*x^2")],
        "var and const": [x, ring.one(), ring.const(Fraction(6, 3)), ring.const(half)],
        "+": [h + h, x * half + x * half, f + 1, 1 + h],
        "-": [h - (-h), x * half - x * -half, 1 - g, h - half],
        "*": [h * 2, (x * half) * 2, 2 * (x * half), h * h, f * half, (x + half) * (x - half)],
        "**": [(x * half + 1) ** 2, (h * 2) ** 3],
        "neg": [-h],
        "monic": [p.monic(), (h * 2).monic(), (g * half).monic()],
        "exact_div": [
            p.exact_div(ring.const(4)), (h * h).exact_div(h), (f * g).exact_div(f * half)
        ],
        "substitute": [
            h.substitute({"x": half, "y": y * 2}), f.substitute({"x": x * half + half}),
        ],
        "differentiate": [(x**2 * half).differentiate("x"), h.differentiate("y")],
        "in_ring": [
            h.in_ring(PolynomialRing(("z", "w", "y", "x"))),
            (y * half).in_ring(PolynomialRing(("y",))),
        ],
        # kernel outputs: the first system sums halves to an integral
        # Fraction in the basis, and the first normal form in its remainder
        "groebner": [
            *groebner([x + y * half, x - y * half + z]),
            *groebner([f, g, h]), *groebner([x - 1, x + 1]), *groebner([p.monic()]),
        ],
        "normal_form": [normal_form(x * half + y * half, [x - y]), normal_form(g * h, [f])],
        "s_polynomial": [s_polynomial(f, g), s_polynomial(g, h), s_polynomial(f, h)],
        "_interreduce": list(_interreduce([x + y * half, x - y * half + z, f])),
    }
    assert groebner([x + y * half, x - y * half + z]) == (y - z, x + z * half)
    assert normal_form(x * half + y * half, [x - y]) == y
    kinds = set()
    for producer, polys in results.items():
        for r in polys:
            assert all(in_convention(c) for c in r.terms.values()), (producer, r)
            kinds.update(type(c) for c in r.terms.values())
    assert kinds == {int, Fraction}


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_narrow_fields_widen_to_the_same_answer_and_steps(order, monkeypatch):
    # 2-bit fields hold exponents and block degrees up to 1: the
    # computations below overflow them, and the kernel redoes each on wider
    # fields, giving back the steps the overflowing attempt charged
    rng = random.Random(f"widen-{order}")
    ring = PolynomialRing(("a", "b", "c"), order)
    cases = []
    for _ in range(8):
        gens = [random_poly(rng, ring, rng.randint(2, 4), 2) for _ in range(rng.randint(2, 3))]
        cases.append([g for g in gens if not g.is_zero()])
    system_ring, system = katsura(3)
    cases.append([g.in_ring(system_ring.with_order(order)) for g in system])

    def run():
        out = []
        for gens in cases:
            with reduction_budget(10**6) as meter:
                gb = groebner(gens)
                nf = normal_form(gens[0] * gens[-1] + gens[0], gens[1:])
                sp = s_polynomial(gens[0], gens[-1])
            out.append((gb, nf, sp, meter.used))
        return out

    wide = run()
    monkeypatch.setattr(polyring, "PACK_BITS", 2)
    with pytest.raises(ExponentOverflowError):
        order.packing(ring.nvars).pack((2, 0, 0))
    assert run() == wide


def reference_saturate(ideal, f):
    """ideal : f^infinity as the elimination of t from ideal + (1 - t*f), on
    the ideal's own generators (Rabinowitsch), for f of any degree."""
    t = fresh_name(ideal.ring.names)
    work = PolynomialRing((t, *ideal.ring.names), MonomialOrder.elim(1))
    gens = [g.in_ring(work) for g in ideal.gens]
    gens.append(work.one() - work.var(t) * f.in_ring(work))
    return Ideal(work, gens).eliminate({t}).in_ring(ideal.ring)


def reference_radical_contains(ideal, f):
    """Radical membership by the auxiliary-variable trick alone."""
    if f.is_zero():
        return True
    t = fresh_name(ideal.ring.names)
    work = PolynomialRing((t, *ideal.ring.names), MonomialOrder.elim(1))
    gens = [g.in_ring(work) for g in ideal.gens]
    gens.append(work.one() - work.var(t) * f.in_ring(work))
    return Ideal(work, gens).is_trivial()


def saturation_route(ideal, f):
    """Which way Ideal.saturate takes for f of total degree 1: the first
    certificate that applies, or the elimination."""
    grevlex = ideal.ring.with_order(MonomialOrder.grevlex())
    f = f.in_ring(grevlex)
    stripped = []
    for g in ideal.gens:
        g = g.in_ring(grevlex)
        while True:
            try:
                g = g.exact_div(f)
            except ExactDivisionError:
                break
        stripped.append(g)
    J = Ideal(grevlex, stripped)
    if len(J.gens) <= 1:
        return "principal"
    i = f.leading_monomial().index(1)
    if not any(g.leading_monomial()[i] for g in J.groebner()):
        return "initial ideal"
    if J.plus([f]).is_trivial():
        return "unit"
    return "elimination"


def random_linear(rng, ring):
    while True:
        f = ring.const(rng.choice((0, 0, 1, -2)))
        for name in ring.names:
            f = f + ring.var(name) * rng.choice((0, 0, 1, -1, 3, Fraction(1, 2)))
        if f.total_degree() == 1:
            return f


def random_saturation_input(rng, ring, f):
    """Generators that products of f, of other linear forms and of random
    polynomials make, so that f divides some and is a zerodivisor modulo
    some of the rest."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = random_poly(rng, ring, rng.randint(1, 2), 1)
        if g.is_zero():
            continue
        shape = rng.randint(0, 3)
        if shape == 1:
            g = g * f ** rng.randint(1, 2)
        elif shape == 2:
            g = random_linear(rng, ring) * f
        elif shape == 3:
            g = f * random_linear(rng, ring) + random_linear(rng, ring) ** 2
        gens.append(g)
    return Ideal(ring, gens)


@pytest.mark.parametrize(
    "order", (MonomialOrder.grevlex(), MonomialOrder.lex()), ids=str
)
@pytest.mark.hashseed
def test_degree_one_saturation_matches_rabinowitsch_reference(order):
    # every route gives the generators the elimination gives, in its order
    # (the order of terms inside a generator is not read by any output); the
    # cached basis, where there is one, is what groebner() would return
    rng = random.Random(f"saturate-{order}")
    ring = PolynomialRing(("a", "b", "c"), order)
    routes = {}
    for _ in range(120):
        f = random_linear(rng, ring)
        ideal = random_saturation_input(rng, ring, f)
        got = ideal.saturate(f)
        want = reference_saturate(ideal, f)
        assert got.gens == want.gens
        assert got.groebner() == groebner(got.gens)
        route = saturation_route(ideal, f)
        routes[route] = routes.get(route, 0) + 1
    assert set(routes) == {"principal", "initial ideal", "unit", "elimination"}
    assert min(routes.values()) >= 5, routes


def test_each_saturation_route_on_a_worked_example():
    x, y, z = R3.gens()
    cases = [
        # f prime and dividing no generator left
        (Ideal(R3, (x * (y**2 - z),)), x, "principal", Ideal(R3, (y**2 - z,))),
        # x occurs in no leading monomial of (z)
        (Ideal(R3, (x * z, y * z)), x, "initial ideal", Ideal(R3, (z,))),
        # y divides the first generator once; (y - 1, z*y^2 - z) + (y) is
        # the unit ideal
        (Ideal(R3, (y * (y - 1), z * y**2 - z)), y, "unit", Ideal(R3, (y - 1,))),
        # (x*y, x^2 - y^2) is primary to the origin, so saturating by x
        # empties it, though x divides no generator once y is split off
        (Ideal(R3, (x * y, x**2 - y**2)), x, "elimination", Ideal(R3, (R3.one(),))),
    ]
    for ideal, f, route, saturated in cases:
        assert saturation_route(ideal, f) == route
        assert ideal.saturate(f) == saturated == reference_saturate(ideal, f)


@pytest.mark.hashseed
def test_higher_degree_saturation_matches_rabinowitsch_reference():
    rng = random.Random("saturate-higher")
    ring = PolynomialRing(("a", "b", "c"))
    for _ in range(40):
        f = random_poly(rng, ring, rng.randint(1, 3), 2)
        if f.total_degree() < 2:
            continue
        ideal = random_saturation_input(rng, ring, f)
        assert ideal.saturate(f).gens == reference_saturate(ideal, f).gens


@pytest.mark.hashseed
def test_radical_membership_matches_reference():
    rng = random.Random("radical")
    ring = PolynomialRing(("a", "b", "c"))
    answers = []
    for _ in range(60):
        ideal = Ideal(ring, [random_poly(rng, ring, rng.randint(1, 3), 2) for _ in range(2)])
        f = random_poly(rng, ring, rng.randint(1, 3), 2)
        if rng.random() < 0.5 and ideal.gens:
            # an element of the ideal, or the root of one
            f = ideal.gens[0] * random_poly(rng, ring, 2, 1)
            if rng.random() < 0.5:
                ideal = Ideal(ring, (ideal.gens[0] ** 2, *ideal.gens[1:]))
        got = ideal.radical_contains(f)
        assert got == reference_radical_contains(ideal, f)
        answers.append((got, ideal.contains(f)))
    assert {(True, True), (True, False), (False, False)} <= set(answers)


def reference_eliminate(ideal, drop):
    """The elimination ideal's reduced basis from the elimination order on
    the raw generators, without presolving."""
    ordered = tuple(n for n in ideal.ring.names if n in drop)
    kept = tuple(n for n in ideal.ring.names if n not in drop)
    work = PolynomialRing(ordered + kept, MonomialOrder.elim(len(ordered)))
    target = PolynomialRing(kept)
    basis = groebner([g.in_ring(work) for g in ideal.gens])
    return tuple(g.in_ring(target) for g in basis if not g.variables_used() & set(drop))


def reference_dimension_or_none(ideal):
    """The dimension from the reduced basis of the raw generators, or None."""
    raw = Ideal(ideal.ring, ideal.gens)
    if any(g.is_constant() for g in raw.groebner()):
        return None
    return reference_krull_dimension(raw)


def free_of(rng, ring, name):
    """One or two random terms, each of degree at most 1 in every variable
    but name, which they leave out."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        e = [rng.randint(0, 1) for _ in ring.names]
        e[ring.index(name)] = 0
        terms[tuple(e)] = rng.choice((1, -1, 2, -3, Fraction(1, 2)))
    return Polynomial(ring, terms)


def presolve_input(rng, ring):
    """Generators of four shapes: c*v + h with h free of v; v set to a
    value; a decoy c*v + v*m + h, whose linear term in v is not v's only
    term; and a square or cube of v times one or two terms free of v,
    plus h."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(ring.names)
        v = ring.var(name)
        c = rng.choice((1, -1, 2, Fraction(-1, 3)))
        h = free_of(rng, ring, name)
        shape = rng.randint(0, 3)
        if shape == 0:
            gens.append(c * v + h)
        elif shape == 1:
            gens.append(c * v - rng.randint(-3, 3))
        elif shape == 2:
            other = ring.var(rng.choice(ring.names))
            gens.append(c * v + rng.choice((v, other, v * other)) * v + h)
        else:
            gens.append(free_of(rng, ring, name) * v ** rng.randint(2, 3) + h)
    return Ideal(ring, gens)


@pytest.mark.hashseed
def test_presolved_questions_match_the_raw_elimination_reference():
    # eliminate, dimension_or_none and is_trivial give what the elimination
    # order on the raw generators gives, in rings whose names are permuted
    rng = random.Random("presolve")
    seen = set()
    for _ in range(150):
        names = ["a", "b", "c"]
        rng.shuffle(names)
        ring = PolynomialRing(tuple(names), rng.choice((MonomialOrder.grevlex(), MonomialOrder.lex())))
        ideal = presolve_input(rng, ring)
        drop = set(rng.sample(ring.names, rng.randint(1, 2)))
        got = ideal.eliminate(drop)
        assert got.gens == reference_eliminate(ideal, drop), (ideal, drop)
        assert got.groebner() == groebner(got.gens)
        dim = reference_dimension_or_none(ideal)
        assert Ideal(ring, ideal.gens).dimension_or_none() == dim, ideal
        assert Ideal(ring, ideal.gens).is_trivial() == (dim is None), ideal
        _, solved = ideals.presolve(ring, ideal.gens, ring.names)
        _, dropped = ideals.presolve(ring, ideal.gens, tuple(n for n in ring.names if n in drop))
        if len(solved) == ring.nvars:
            seen.add("all solved")
        if dim is None:
            seen.add("unit")
        if any(g.degree_in(n) >= 2 for n in solved for g in ideal.gens):
            seen.add("power")
        if dropped and len(dropped) < len(drop):
            seen.add("some dropped solved")
        if len(dropped) == len(drop):
            seen.add("every dropped solved")
    assert seen == {"all solved", "unit", "power", "some dropped solved", "every dropped solved"}


@pytest.mark.hashseed
def test_presolve_solves_only_a_variable_in_one_term():
    a, b, c = R3.gens()
    # x occurs twice in the first generator, so only the second solves one
    rest, solved = ideals.presolve(R3, (a + a * b - 1, b - 2 * c), R3.names)
    assert solved == ("y",) and rest == (a + 2 * a * c - 1,)
    # z := -x^2*y first, then the value of x into its square; the constant
    # left makes the rest (1)
    rest, solved = ideals.presolve(R3, (a**2 * b + c, a - 1, b + 1, c - 2), R3.names)
    assert solved == ("z", "x", "y") and rest == (R3.one(),)
    # only the allowed variables are substituted away
    rest, solved = ideals.presolve(R3, (a - b**2, c - a * b), ("x",))
    assert solved == ("x",) and rest == (c - b**3,)


def test_empty_variety_error_names_the_ideal_asked_about():
    ideal = Ideal.parse(R3, "x - 1; x - 2")
    with pytest.raises(EmptyVarietyError) as caught:
        ideal.krull_dimension()
    assert str(caught.value) == f"{ideal!r} is the unit ideal"
    assert ideal.dimension_or_none() is None and ideal.is_trivial()


@pytest.mark.hashseed
def test_presolved_dimension_counts_only_unsolved_variables():
    assert Ideal.parse(R4, "x - y*z; t - 2").krull_dimension() == 2
    assert Ideal.parse(R4, "x - 1; y - x^2; z + y; t - z*x").krull_dimension() == 0
    assert Ideal.parse(R4, "x - y^2; x^2 - y").krull_dimension() == 2
    # a cached basis is read as it is
    cached = Ideal.parse(R4, "x - 1; y^2")
    cached.groebner()
    assert cached.krull_dimension() == 2


@pytest.mark.hashseed
def test_rational_point_blows_down_without_a_reduction_step():
    from singpair.blowup import ResolutionTower, blowdown_image

    tower = ResolutionTower.affine(R4, (R4.parse("x^2 - y^2 + t*z^2"),))
    tower.blow_up((R4.var("x"), R4.var("y"), R4.var("z")))
    leaf = tower.leaves[0]  # x = xp*z, y = yp*z, relation xp^2 - yp^2 + t
    point = leaf.relations.plus(Ideal.parse(leaf.ring, "xp - 2; yp - 1; z - 3; t + 3"))
    with reduction_budget(ideals.DEFAULT_BUDGET) as meter:
        image = blowdown_image(leaf, point, R4)
    assert meter.used == 0
    assert image == Ideal.parse(R4, "x - 6; y - 3; z - 3; t + 3")
