"""Ideal arithmetic: Groebner bases, elimination, saturation, dimension.

The Buchberger loop charges every leading-term cancellation against a
reduction budget so runaway eliminations fail loudly instead of hanging.
A budget meter is installed per top-level Groebner computation unless the
caller scopes one explicitly with reduction_budget(); nested computations
(saturation, intersection, dimension) share the ambient meter.

Step accounting: one step is one reduction of a leading term, in the
S-pair loop or in an interreduction, and nothing else is charged. An
answer known without reducing charges none, and each leaves every
reduced basis as it is, since a reduced basis is unique:

- generators equal after scaling are kept once, and a constant one makes
  the basis (1), before the first interreduction;
- an interreduced input whose leading monomials are pairwise coprime is
  the reduced basis (Buchberger's first criterion);
- before the last interreduction, an element whose leading monomial
  another's divides is dropped: it reduces to 0 on the Groebner basis,
  and the others are still one, a minimal basis (Becker and Weispfenning,
  Groebner Bases, ch. 5);
- Ideal.contains(f) is True at once when f is a constant multiple of a
  generator. Without a cached basis, on an ideal that presolve over
  every variable solves outright, it is decided by substituting the
  solved variables into f: such an ideal is the graph of a polynomial
  map, so it is prime and the quotient ring is the polynomial ring of
  the unsolved variables;
- Ideal.radical_contains(f) is Ideal.contains(f) on an ideal that is its
  own radical by a certificate: it is such a graph, or every leading
  monomial of its reduced basis is squarefree;
- Ideal.saturate(f), for f of degree 1, returns the ideal J of
  generators stripped of their powers of f when J is such a graph and f
  is not in it, since J : f^infinity = J for a prime J without f;
- inside groebner_memo(), a basis whose generators' presolve over every
  variable, and the basis of its rest, are already kept starts from the
  solving generators and that basis (see presolve), and an equal request
  is answered from the memo.

The kernel works on packed monomials (polyring.Packing): each exponent
tuple is one int laid out for the ring's order, so comparing monomials
compares ints, multiplying them adds ints, and a divisibility test is one
addition and one mask. Coefficients follow Polynomial's convention, an
int when integral and a Fraction otherwise; a quotient is exact and an int
whenever it is integral. The generators are packed once on entry and the
reduced basis unpacked once on exit, back to exponent tuples, so
Polynomial never sees a packed monomial. A kernel sum of Fractions can be
integral; unpacking turns it into its int. When a computation makes a
monomial its fields cannot hold, it is repeated on wider fields, and the
steps the first try charged are given back. normal_form, s_polynomial and _interreduce wrap
the same kernel for polynomials.

Division works in place: one mutable dict of terms and a heap of their
negated packed monomials, which pops the leading one. Its strategy is
fixed: the leading term is reduced by the first basis element, in basis
order, whose leading monomial divides it, one budget step is charged per
such reduction, and a leading term no element divides moves to the
remainder. The S-pairs wait in a heap, keyed by their packed lcm computed
once per pair. Under a degree-compatible
order (grevlex) they are treated smallest lcm first with ties broken by
(i, j), Buchberger's normal strategy. Under lex and elim orders, where the
lcm order strays into high degrees, the smallest sugar goes first and the
lcm breaks ties: sugar is the degree the S-polynomial would have if every
input were homogenized (Giovini, Mora, Niesi, Robbiano, Traverso, "One
sugar cube, please", ISSAC 1991). The strategy changes only the path, not
the reduced basis, which is unique.

Interreduction (of the input, and of the final basis) divides an element by
the others only when another element's leading monomial divides one of its
terms. An element that is already reduced is kept as it is: division would
return it unchanged and charge nothing. The bases groebner() returns store
each distinct exponent tuple and coefficient once, shared within the basis
and with recently built bases, which keeps bases cheap to hold on to. The
interreduced input is used once inside the kernel and is not shared.

Elimination, the unit test and the dimension presolve first (the minimal
presentation step of Macaulay2): a generator c*v + h, c a nonzero constant
and h free of v, is dropped and v := -h/c substituted into the others,
until no generator solves a variable. The substitution is the graph
isomorphism between V(I) and the zero set of the rest in the space
without v, so it keeps the dimension and emptiness, and for a dropped v
the elimination ideal (Cox, Little and O'Shea, Ideals, Varieties, and
Algorithms, ch. 3 sec. 1). Ideal.eliminate substitutes away only dropped
variables; is_trivial, krull_dimension and contains substitute any
variable, and only when the ideal has no cached basis (contains only
when no generator is left). groebner(), normal_form and canonical_key
never substitute, so every reduced basis an ideal reports is its own;
groebner() only starts, inside a memo, from generators of the same ideal
that a presolve left.

Inside groebner_memo() each pure result is computed once, keyed by
values, never by object ids (an id is reused once its object is freed):

- groebner() keys its nonzero generators, with their ring;
- presolve() keys its ring, generators and the variables it may solve;
- factor.factor() keys the polynomial;
- blowup.proper_transform() and a pivot chart's relations key each
  lineage step by the step, the passenger names and the generators it
  moves;
- blowup.misses_center() keys the step's center, and the ring and
  generators of the transform on the parent chart;
- pairing keys each chart intersection by the chart's ring and relations
  and the generators of the two transforms.

A later request with an equal key gets the stored result and charges no
step. The CLI opens one memo per scenario run, whose charts, tower
prefixes and tasks ask for many equal ideals, factor the same
polynomials and move cycles up lineages that sibling charts share;
outside a memo nothing is kept. A computation that raises (a budget
running out, a factorization out of scope) stores nothing.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import (
    BudgetExceededError,
    EmptyVarietyError,
    ExponentOverflowError,
    NotZeroDimensionalError,
    RingMismatchError,
)
from .polyring import (
    MonomialOrder,
    Packing,
    Polynomial,
    PolynomialRing,
    _quotient,
    exp_divides,
    exp_lcm,
)

DEFAULT_BUDGET = 1_000_000

T = TypeVar("T")


class _Meter:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)


_active_meter: ContextVar[_Meter | None] = ContextVar("singpair_meter", default=None)


@contextmanager
def reduction_budget(limit: int) -> Iterator[_Meter]:
    """Scope a shared reduction budget over a block of computations."""
    meter = _Meter(limit)
    token = _active_meter.set(meter)
    try:
        yield meter
    finally:
        _active_meter.reset(token)


# pure results by a tagged value key, shared by the computations of one
# scenario run; None outside groebner_memo(), where nothing is kept
_active_memo: ContextVar[dict | None] = ContextVar("singpair_memo", default=None)


@contextmanager
def groebner_memo() -> Iterator[dict]:
    """Compute each reduced basis, presolve, factorization and
    strict-transform step once within a block: a later request with an
    equal key returns the stored result and charges no step."""
    memo: dict = {}
    token = _active_memo.set(memo)
    try:
        yield memo
    finally:
        _active_memo.reset(token)


def remembered(key: tuple, compute: Callable[..., T], *args) -> T:
    """compute(*args), stored under key in the open groebner_memo() and
    taken from there on a later call with an equal key; compute never
    returns None. Outside a memo compute runs every time."""
    memo = _active_memo.get()
    if memo is None:
        return compute(*args)
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute(*args)
    return value


def _charge() -> None:
    meter = _active_meter.get()
    if meter is not None:
        meter.charge()


def fresh_name(taken: Iterable[str], base: str = "_t") -> str:
    taken = set(taken)
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


# -- reduction and Buchberger -------------------------------------------------

# Inside the kernel a polynomial is a dict from packed monomials to nonzero
# coefficients: an int when the coefficient is integral, a Fraction otherwise,
# except that a sum of Fractions may be an integral Fraction.


def _pack(packing: Packing, f: Polynomial) -> dict:
    return dict(zip(map(packing.pack, f.terms), f.terms.values()))


def _unpack(ring: PolynomialRing, packing: Packing, terms: dict) -> Polynomial:
    unpack = packing.unpack
    return Polynomial._new(
        ring,
        {
            unpack(m): c if c.__class__ is int or c.denominator != 1 else c.numerator
            for m, c in terms.items()
        },
    )


def _monic(terms: dict) -> dict:
    lc = terms[max(terms)]
    if lc == 1:
        return terms
    return {m: _quotient(c, lc) for m, c in terms.items()}


class _Elem:
    """A kernel polynomial with what division by it reads: its leading
    monomial and coefficient, the divisibility probe of the leading
    monomial, and the terms below the lead."""

    __slots__ = ("terms", "lm", "lc", "probe", "tail")

    def __init__(self, terms: dict, packing: Packing) -> None:
        self.terms = terms
        self.lm = lm = max(terms)
        self.lc = terms[lm]
        self.probe = packing.probe(lm)
        self.tail = [(m, c) for m, c in terms.items() if m != lm]


def _packed(ring: PolynomialRing, run):
    """(packing, run(packing)) on the ring's default packing. A run that
    makes a monomial the fields cannot hold is repeated on fields twice as
    wide, and the steps it charged are given back."""
    meter = _active_meter.get()
    used = meter.used if meter is not None else 0
    packing = ring.order.packing(ring.nvars)
    while True:
        try:
            return packing, run(packing)
        except ExponentOverflowError:
            if meter is not None:
                meter.used = used
            packing = ring.order.packing(ring.nvars, 2 * packing.bits)


def _reduce(terms: dict, basis: Sequence[_Elem], packing: Packing) -> dict:
    """The remainder of terms, which are consumed, on division by basis.

    The largest term left is reduced by the first element of basis whose
    leading monomial divides it, at one budget step, or else moves to the
    remainder. Every monomial a reduction adds lies below the one it
    removed, so a monomial popped from the heap never comes back.
    """
    sign, mask = packing.sign, packing.divisor_mask
    guards, valid = packing.guards, packing.valid
    heap = [-m for m in terms]
    heapify(heap)
    remainder = {}
    while heap:
        m = -heappop(heap)
        c = terms.pop(m, None)
        if c is None:
            continue  # cancelled, or a repeated heap entry
        x = sign * m
        for g in basis:
            if not (x + g.probe) & mask:
                break
        else:
            remainder[m] = c
            continue
        q = -c if g.lc == 1 else -_quotient(c, g.lc)  # minus the quotient term
        shift = m - g.lm
        for e, d in g.tail:
            t = e + shift
            if t & guards != valid:
                packing.check(t)
            old = terms.get(t)
            if old is None:
                terms[t] = q * d
                heappush(heap, -t)
            else:
                s = old + q * d
                if s:
                    terms[t] = s
                else:
                    del terms[t]
        _charge()
    return remainder


def _spoly(f: _Elem, g: _Elem, lcm: int, packing: Packing) -> dict:
    guards, valid = packing.guards, packing.valid
    terms = {}
    shift, lc = lcm - f.lm, f.lc
    for e, c in f.tail:
        t = e + shift
        if t & guards != valid:
            packing.check(t)
        terms[t] = c if lc == 1 else _quotient(c, lc)
    shift, lc = lcm - g.lm, g.lc
    for e, c in g.tail:
        t = e + shift
        if t & guards != valid:
            packing.check(t)
        s = terms.get(t, 0) - (c if lc == 1 else _quotient(c, lc))
        if s:
            terms[t] = s
        else:
            del terms[t]
    return terms


def _interreduced(basis: list[_Elem], packing: Packing) -> list[_Elem]:
    """Monic elements, each divided by the others until a pass changes
    nothing, sorted by ascending leading monomial.

    An element none of whose terms another element's leading monomial
    divides is kept without dividing: division would charge nothing and
    return the same terms. Only their insertion order could differ, and
    no output reads it (printing, equality, hashing and canonical keys
    all sort terms).
    """
    sign, mask = packing.sign, packing.divisor_mask
    changed = True
    while changed:
        changed = False
        out: list[_Elem] = []
        for i, p in enumerate(basis):
            others = out + basis[i + 1 :]
            probes = [g.probe for g in others]
            if not any(not (sign * m + probe) & mask for m in p.terms for probe in probes):
                out.append(p)
                continue
            # some term is divisible, so the remainder differs from p
            changed = True
            q = _reduce(p.terms, others, packing)
            if q:
                out.append(_Elem(_monic(q), packing))
        basis = out
    basis.sort(key=lambda g: g.lm)
    return basis


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of f on division by basis (first-divisor strategy)."""
    return normal_forms((f,), basis)[0]


def normal_forms(fs: Sequence[Polynomial], basis: Sequence[Polynomial]) -> list[Polynomial]:
    """normal_form(f, basis) for every f in fs, the basis packed once."""
    if not basis:
        return list(fs)
    ring = basis[0].ring
    for f in (*basis, *fs):
        if f.ring != ring:
            raise RingMismatchError(f"{ring} vs {f.ring}")

    def run(packing: Packing) -> list[dict]:
        divisors = [_Elem(_pack(packing, g), packing) for g in basis]
        return [_reduce(_pack(packing, f), divisors, packing) for f in fs]

    packing, remainders = _packed(ring, run)
    return [_unpack(ring, packing, r) for r in remainders]


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, built in one dict.

    The leading terms cancel exactly and are left out; a monic operand is
    not rescaled.
    """
    if f.ring != g.ring:
        raise RingMismatchError(f"{f.ring} vs {g.ring}")

    def run(packing: Packing) -> dict:
        a, b = _Elem(_pack(packing, f), packing), _Elem(_pack(packing, g), packing)
        lcm = exp_lcm(packing.unpack(a.lm), packing.unpack(b.lm))
        return _spoly(a, b, packing.pack(lcm), packing)

    return _unpack(f.ring, *_packed(f.ring, run))


def _interreduce(polys: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """The polynomials made monic and interreduced (see _interreduced)."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return ()
    ring = polys[0].ring

    def run(packing: Packing) -> list[_Elem]:
        return _interreduced([_Elem(_monic(_pack(packing, p)), packing) for p in polys], packing)

    packing, basis = _packed(ring, run)
    return tuple(_unpack(ring, packing, g.terms) for g in basis)


# Exponent tuples and coefficients of recent reduced bases, by value. Bases
# are cached on their ideals and often kept, and bases built one after
# another repeat most monomials and many coefficients, also across variable
# orders: on the groebner_systems benchmark about 54% of the values a basis
# stores repeat within that basis, and 66-84% are found here. Coefficients
# are made ints where integral before they are shared, so the pool never
# hands out an integral Fraction for an int. Emptied when it passes
# _POOL_LIMIT entries, which bounds what it pins.
_POOL_LIMIT = 4096
_pool: dict = {}


def _share_storage(
    ring: PolynomialRing, packing: Packing, basis: Sequence[dict]
) -> tuple[Polynomial, ...]:
    """The kernel's polynomials unpacked, with equal exponent tuples and
    equal coefficients stored once, within the basis and with recent
    bases."""
    if len(_pool) > _POOL_LIMIT:
        _pool.clear()
    share, unpack = _pool.setdefault, packing.unpack
    out = []
    for g in basis:
        terms = {}
        for m, c in g.items():
            e = unpack(m)
            if c.__class__ is not int and c.denominator == 1:
                c = c.numerator
            terms[share(e, e)] = share(c, c)
        out.append(Polynomial._new(ring, terms))
    return tuple(out)


def groebner(gens: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis (monic, interreduced, ascending leading terms),
    from the open groebner_memo() when it holds an equal generator list."""
    gens = tuple(g for g in gens if not g.is_zero())
    if not gens:
        return ()
    ring = gens[0].ring
    return remembered(("groebner", ring, gens), _seeded_basis, ring, gens)


def _seeded_basis(ring: PolynomialRing, gens: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
    """The reduced basis of gens. When the open groebner_memo() holds their
    presolve over every variable and the reduced basis of its rest, it is
    computed from the solving generators and that basis, which generate
    the same ideal (see presolve)."""
    memo = _active_memo.get()
    done = memo.get(("presolve", ring, gens, ring.names)) if memo else None
    if done is not None:
        rest, solved, solving = done
        # a rest of () or (1), as every solved variable leaves, is its own basis
        if not rest or len(solved) == ring.nvars:
            basis = rest
        else:
            basis = memo.get(("groebner", ring, rest))
        if basis is not None:
            gens = solving + basis
    return _reduced_basis(gens)


def _reduced_basis(gens: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")

    def run(packing: Packing) -> list[dict]:
        return _buchberger([_pack(packing, g) for g in gens], packing)

    if _active_meter.get() is None:
        with reduction_budget(DEFAULT_BUDGET):
            return _share_storage(ring, *_packed(ring, run))
    return _share_storage(ring, *_packed(ring, run))


def _coprime(monomials: list[tuple[int, ...]]) -> bool:
    """Whether the monomials are pairwise coprime: no variable occurs in two."""
    return all(len(column) - column.count(0) <= 1 for column in zip(*monomials))


def _buchberger(gens: list[dict], packing: Packing) -> list[dict]:
    """The reduced basis of the packed generators, as packed terms."""
    zero, unpack = packing.zero, packing.unpack
    unit = [{zero: 1}]
    # a generator equal to an earlier one after scaling would only be
    # reduced to 0 by it, and a constant one makes the ideal (1)
    monic: list[dict] = []
    for g in map(_monic, gens):
        if g not in monic:
            monic.append(g)
    if unit[0] in monic:
        return unit
    basis = _interreduced([_Elem(g, packing) for g in monic], packing)
    if any(g.lm == zero for g in basis):
        return unit
    lead = [unpack(g.lm) for g in basis]
    if _coprime(lead):
        # every S-pair reduces to 0 (Buchberger's first criterion), so the
        # interreduced input is the reduced basis
        return [g.terms for g in basis]
    # sugar: the total degree each element would have if every reduction kept
    # degrees homogeneous; an input element's is its total degree
    by_sugar = not packing.order.degree_compatible
    sugar = [max(sum(unpack(m)) for m in g.terms) if by_sugar else 0 for g in basis]
    # the pairs still to treat, as a set for the chain criterion and as a heap
    # of (sugar, lcm, i, j) that pops them by the smallest sugar, then the
    # smallest lcm, ties broken by (i, j); the sugar is 0 for every pair
    # under a degree-compatible order, where the lcm alone decides
    pending: set[tuple[int, int]] = set()
    queue: list[tuple[int, int, int, int]] = []

    def add_pair(i: int, j: int) -> None:
        lcm = exp_lcm(lead[i], lead[j])
        pending.add((i, j))
        s = 0
        if by_sugar:
            d = sum(lcm)
            s = max(sugar[i] + d - sum(lead[i]), sugar[j] + d - sum(lead[j]))
        heappush(queue, (s, packing.pack(lcm), i, j))

    for j in range(len(basis)):
        for i in range(j):
            add_pair(i, j)

    sign, mask = packing.sign, packing.divisor_mask
    while queue:
        s_ij, lcm_ij, i, j = heappop(queue)
        pending.discard((i, j))
        if basis[i].lm + basis[j].lm - zero == lcm_ij:
            continue  # coprime leading monomials
        x = sign * lcm_ij
        skip = False
        for k, g in enumerate(basis):
            if k == i or k == j or (x + g.probe) & mask:
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                skip = True  # chain criterion
                break
        if skip:
            continue
        r = _reduce(_spoly(basis[i], basis[j], lcm_ij, packing), basis, packing)
        if not r:
            continue
        g = _Elem(_monic(r), packing)
        if g.lm == zero:
            return unit
        basis.append(g)
        lead.append(unpack(g.lm))
        sugar.append(s_ij)
        new = len(basis) - 1
        for k in range(new):
            add_pair(k, new)
    # the leading monomials are pairwise distinct: those of the interreduced
    # input are, and each remainder's is divisible by no earlier one. An
    # element whose leading monomial another's divides reduces to 0 on the
    # Groebner basis, and the others are still one (a minimal basis)
    basis = [
        g
        for g in basis
        if not any(h is not g and not (sign * g.lm + h.probe) & mask for h in basis)
    ]
    return [g.terms for g in _interreduced(basis, packing)]


# -- presolve -------------------------------------------------------------------


Presolved = tuple[tuple[Polynomial, ...], tuple[str, ...], tuple[Polynomial, ...]]


def presolve(
    ring: PolynomialRing, gens: tuple[Polynomial, ...], allowed: tuple[str, ...]
) -> Presolved:
    """(rest, solved, solving): gens with each variable of allowed that a
    generator solves substituted away, those variables in the order they
    were solved, and the generator that solved each, as it was when it
    did; from the open groebner_memo() when it holds an equal request.

    A generator solves v when v occurs in exactly one of its terms, and
    that term is c*v: the generator is c*v + h with h free of v. It is
    dropped and v := -h/c substituted into the others, until no generator
    solves a variable of allowed. The rest then generate, in the ring
    without the solved variables, the ideal that the graph isomorphism
    v -> -h/c carries the input to. A nonzero constant in the rest makes
    it (1). A substitution subtracts from each generator a multiple of
    c*v + h, so solving and rest together generate the ideal of gens.
    """
    return remembered(("presolve", ring, gens, allowed), _presolve, ring, gens, allowed)


def _presolve(
    ring: PolynomialRing, gens: tuple[Polynomial, ...], allowed: tuple[str, ...]
) -> Presolved:
    free = [ring.index(n) for n in allowed]
    rest = list(gens)
    solved: list[str] = []
    solving: list[Polynomial] = []
    while free:
        found = _solving(rest, free)
        if found is None:
            break
        k, i = found
        g = rest.pop(k)
        solving.append(g)
        binding = {ring.names[i]: _solution(g, i)}
        rest = [
            p.substitute(binding, ring) if any(m[i] for m in p.terms) else p for p in rest
        ]
        rest = [p for p in rest if p.terms]
        solved.append(ring.names[i])
        free.remove(i)
        if any(p.is_constant() for p in rest):
            return (ring.one(),), tuple(solved), tuple(solving)
    return tuple(rest), tuple(solved), tuple(solving)


def _solution(g: Polynomial, i: int) -> Polynomial:
    """-h/c for a generator g = c*v + h that solves the variable v of
    index i."""
    unit = tuple(int(j == i) for j in range(g.ring.nvars))
    c = g.terms[unit]
    return Polynomial._new(g.ring, {m: _quotient(-d, c) for m, d in g.terms.items() if m != unit})


def _on_graph(
    f: Polynomial, solved: tuple[str, ...], solving: tuple[Polynomial, ...]
) -> Polynomial:
    """f with each solved variable substituted away, in the order presolve
    solved them: the image of f in the polynomial ring of the unsolved
    variables. The solving generator of a variable is free of the
    variables solved before it, so f ends free of every solved one."""
    ring = f.ring
    for name, g in zip(solved, solving):
        i = ring.index(name)
        if any(m[i] for m in f.terms):
            f = f.substitute({name: _solution(g, i)}, ring)
    return f


def _solving(gens: Sequence[Polynomial], free: list[int]) -> tuple[int, int] | None:
    """(k, i) for the first of the generators of fewest terms that solve a
    variable of free, and i the first variable of free that gens[k]
    solves; None when no generator solves one."""
    best = None
    for k, g in enumerate(gens):
        if best is not None and len(g.terms) >= len(gens[best[0]].terms):
            continue
        for i in free:
            holding = [m for m in g.terms if m[i]]
            if len(holding) == 1 and holding[0][i] == 1 and sum(holding[0]) == 1:
                best = (k, i)
                break
    return best


# -- the Ideal type -----------------------------------------------------------


class Ideal:
    """A polynomial ideal with a cached reduced Groebner basis."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolynomialRing, gens: Iterable[Polynomial] = ()) -> None:
        checked = []
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError(f"generator ring {g.ring} differs from {ring}")
            if not g.is_zero():
                checked.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", tuple(checked))
        object.__setattr__(self, "_gb", None)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Ideal is immutable")

    @staticmethod
    def parse(ring: PolynomialRing, text: str) -> "Ideal":
        """Parse a semicolon-separated generator list."""
        from .polyring import parse_many

        return Ideal(ring, parse_many(text, ring))

    def groebner(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            object.__setattr__(self, "_gb", groebner(self.gens))
        return self._gb

    def canonical_key(self) -> tuple:
        """Hashable canonical form: the reduced Groebner basis, frozen."""
        return tuple(tuple(sorted(g.terms.items())) for g in self.groebner())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner() == other.groebner()

    def __hash__(self) -> int:
        return hash((self.ring, self.canonical_key()))

    def __repr__(self) -> str:
        inside = "; ".join(str(g) for g in self.gens) or "0"
        return f"<({inside}) in {self.ring}>"

    # -- membership --------------------------------------------------------

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        return normal_form(f, self.groebner())

    def contains(self, f: Polynomial) -> bool:
        """Membership, True without a basis or a reduction when f is a
        constant multiple of a generator. Without a cached basis, on an
        ideal that presolve solves outright (see _graph), f is a member
        exactly when substituting the solved variables into it leaves 0;
        no basis is computed. Otherwise f is reduced on the basis."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        if any(_multiple_of(f, g) for g in self.gens):
            return True
        if self._gb is None:
            graph = self._graph()
            if graph is not None:
                return _on_graph(f, *graph).is_zero()
        return normal_form(f, self.groebner()).is_zero()

    def _graph(self) -> tuple[tuple[str, ...], tuple[Polynomial, ...]] | None:
        """(solved, solving) of presolve over every variable when it leaves
        no generator, else None. The ideal is then the graph of the solved
        variables over the others: ring/ideal is the polynomial ring of the
        unsolved variables, a domain, so the ideal is prime (Cox, Little
        and O'Shea, Ideals, Varieties, and Algorithms, ch. 3 sec. 1)."""
        rest, solved, solving = presolve(self.ring, self.gens, self.ring.names)
        return None if rest else (solved, solving)

    def is_trivial(self) -> bool:
        """Whether the ideal is (1), read from the cached basis when there
        is one and after presolve otherwise."""
        return any(g.is_constant() for g in self._presolved_basis()[0])

    def is_zero(self) -> bool:
        return not self.groebner()

    def radical_contains(self, f: Polynomial) -> bool:
        """Membership in the radical. True at once when the ideal contains
        f. A non-member is outside the radical, with no further work, when
        the ideal is its own radical by one of two certificates:

        - presolve solves it outright, so it is prime (see _graph);
        - every leading monomial of its reduced basis is squarefree. Then
          f reduces to some r != 0 whose leading monomial lies outside
          the initial ideal, a squarefree monomial ideal and so radical;
          lm(r)^k = lm(r^k) stays outside, so r^k, and f^k, are not in the
          ideal (Herzog and Hibi, Monomial Ideals, 2011).

        Otherwise it is decided by the auxiliary-variable trick, started
        from the basis: f is in the radical exactly when 1 - t*f and the
        ideal generate the unit ideal, that is, when the Rabinowitsch
        saturation by f is."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        if f.is_zero() or self.contains(f):
            return True
        if self._graph() is not None or _squarefree_initial(self.groebner()):
            return False
        return _rabinowitsch(Ideal(self.ring, self.groebner()), f).is_trivial()

    def variety_contained_in(self, other: "Ideal") -> bool:
        """True when every common zero of self is a zero of other. A
        nonempty V(self) of larger dimension than V(other), or with V(other)
        empty, is refuted without a radical membership test."""
        if other.ring != self.ring:
            raise RingMismatchError("ideals live in different rings")
        mine = self.dimension_or_none()
        if mine is None:
            return True
        theirs = other.dimension_or_none()
        if theirs is None or mine > theirs:
            return False
        return all(self.radical_contains(g) for g in other.gens)

    # -- constructions -------------------------------------------------------

    def plus(self, extra: Iterable[Polynomial] | "Ideal") -> "Ideal":
        if isinstance(extra, Ideal):
            extra = extra.gens
        return Ideal(self.ring, self.gens + tuple(extra))

    def in_ring(self, ring: PolynomialRing) -> "Ideal":
        return Ideal(ring, tuple(g.in_ring(ring) for g in self.gens))

    @staticmethod
    def _of_basis(ring: PolynomialRing, basis: tuple[Polynomial, ...]) -> "Ideal":
        """The ideal generated by basis, a reduced Groebner basis under
        ring's order, with the basis cached."""
        ideal = Ideal(ring, basis)
        object.__setattr__(ideal, "_gb", ideal.gens)
        return ideal

    def eliminate(self, drop: Iterable[str]) -> "Ideal":
        """Project out variables: the ideal of relations among the rest,
        given by (and caching) its reduced grevlex basis."""
        dropset = {n for n in drop}
        for n in dropset:
            self.ring.index(n)
        if not dropset:
            return self
        kept = tuple(n for n in self.ring.names if n not in dropset)
        if not kept:
            raise ValueError("cannot eliminate every variable")
        ordered_drop = tuple(n for n in self.ring.names if n in dropset)
        # a dropped variable a generator solves is substituted away first:
        # the graph isomorphism keeps the relations among the kept variables
        gens, solved, _ = presolve(self.ring, self.gens, ordered_drop)
        target = PolynomialRing(kept)
        ordered_drop = tuple(n for n in ordered_drop if n not in solved)
        if not ordered_drop:
            return Ideal._of_basis(target, groebner([g.in_ring(target) for g in gens]))
        work = PolynomialRing(ordered_drop + kept, MonomialOrder.elim(len(ordered_drop)))
        gb = groebner([g.in_ring(work) for g in gens])
        # the elements free of the dropped variables are the reduced basis of
        # the elimination ideal under the order of the kept block, grevlex,
        # and they come in its ascending order
        out = tuple(g.in_ring(target) for g in gb if not (g.variables_used() & dropset))
        return Ideal._of_basis(target, out)

    def intersect(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise RingMismatchError("ideals live in different rings")
        t = fresh_name(self.ring.names)
        work = PolynomialRing((t, *self.ring.names), MonomialOrder.elim(1))
        tv = work.var(t)
        gens = [tv * g.in_ring(work) for g in self.gens]
        one_minus_t = work.one() - tv
        gens.extend(one_minus_t * g.in_ring(work) for g in other.gens)
        return Ideal(work, gens).eliminate({t}).in_ring(self.ring)

    def quotient(self, f: Polynomial) -> "Ideal":
        """The colon ideal self : (f)."""
        if f.is_zero():
            raise ValueError("colon by the zero polynomial")
        inter = self.intersect(Ideal(self.ring, (f,)))
        return Ideal(self.ring, tuple(g.exact_div(f) for g in inter.groebner()))

    def saturate(self, f: Polynomial) -> "Ideal":
        """The saturation self : f^infinity, generated by its reduced grevlex
        basis (cached when the ring's order is grevlex).

        For f of total degree 1, every generator is first divided by its
        highest power of f. That gives an ideal J between self and the
        saturation, so J is the saturation as soon as f is a nonzerodivisor
        modulo J. Four certificates show it without an auxiliary variable:

        - J is principal: f, of degree 1, is prime and divides no generator;
        - presolve solves J outright, so J is prime (see _graph), and f is
          not in J, which substitution decides without a basis;
        - the variable lm(f) occurs in no leading monomial of J's reduced
          grevlex basis: then lm(f) is a nonzerodivisor on the initial
          ideal, and so f is one on J (Eisenbud, Commutative Algebra,
          ch. 15);
        - J + (f) is the unit ideal.

        Otherwise the saturation is the elimination of t from J + (1 - t*f)
        (Rabinowitsch), started from J's reduced basis; for f of higher
        degree, from self + (1 - t*f). Both ways give the same reduced
        basis, which is unique.
        """
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        if f.is_zero():
            raise ValueError("saturation by the zero polynomial")
        if f.is_constant():
            return self
        ring = self.ring
        grevlex = ring.with_order(MonomialOrder.grevlex())
        if f.total_degree() == 1:
            linear = f.in_ring(grevlex)
            stripped = Ideal(
                grevlex, (g.in_ring(grevlex).strip_powers(linear)[0] for g in self.gens)
            )
            if _nonzerodivisor_modulo(linear, stripped):
                basis = stripped.groebner()
            else:
                basis = _rabinowitsch(Ideal(grevlex, stripped.groebner()), linear).gens
        else:
            basis = _rabinowitsch(self, f).gens
        basis = tuple(g.in_ring(ring) for g in basis)
        return Ideal._of_basis(ring, basis) if grevlex == ring else Ideal(ring, basis)

    def saturate_ideal(self, other: "Ideal") -> "Ideal":
        """Saturation by a (non-unit) ideal: intersect per-generator saturations."""
        if other.is_trivial():
            raise ValueError("saturation by the unit ideal")
        if not other.gens:
            raise ValueError("saturation by the zero ideal")
        result: Ideal | None = None
        for g in other.gens:
            part = self.saturate(g)
            result = part if result is None else result.intersect(part)
        assert result is not None
        return result

    # -- dimension -----------------------------------------------------------

    def krull_dimension(self) -> int:
        """Dimension of the vanishing locus in affine space.

        Raises EmptyVarietyError for the unit ideal. Computed from the
        leading-monomial staircase: the largest variable subset containing
        no leading monomial's support, whose complement is the smallest
        subset that meets every support. Without a cached basis the
        staircase is that of the presolved generators, whose solved
        variables are not counted.
        """
        gb, solved = self._presolved_basis()
        if any(g.is_constant() for g in gb):
            raise EmptyVarietyError(f"{self!r} is the unit ideal")
        supports = {
            sum(1 << i for i, k in enumerate(g.leading_monomial()) if k) for g in gb
        }
        return self.ring.nvars - solved - _hitting_number(supports)

    def _presolved_basis(self) -> tuple[tuple[Polynomial, ...], int]:
        """(basis, solved): the cached basis and 0 when there is one, else a
        reduced basis, in this ring, of the presolved generators and the
        number of variables presolve substituted away. Both zero sets are
        isomorphic by the graph of the solved variables, so the unit test
        and the dimension, less solved, read the same on either. When every
        variable is solved, the presolved generators are () or (1) and
        need no basis."""
        if self._gb is not None:
            return self._gb, 0
        gens, solved, _ = presolve(self.ring, self.gens, self.ring.names)
        if not solved:
            return self.groebner(), 0
        if len(solved) == self.ring.nvars:
            return gens, len(solved)
        return groebner(gens), len(solved)

    def dimension_or_none(self) -> int | None:
        """Krull dimension, or None for the empty variety."""
        try:
            return self.krull_dimension()
        except EmptyVarietyError:
            return None

    def codimension(self) -> int:
        return self.ring.nvars - self.krull_dimension()

    def vector_space_dimension(self) -> int:
        """dim over QQ of ring/ideal; requires a finite staircase."""
        return len(self.standard_monomials())

    def standard_monomials(self) -> list[tuple[int, ...]]:
        """The exponents of the monomials no leading monomial of the reduced
        basis divides, in ascending lex order of the tuples: a basis of
        ring/ideal over QQ, whose normal forms it spans. Requires a finite
        staircase (NotZeroDimensionalError otherwise); empty for the unit
        ideal."""
        gb = self.groebner()
        if any(g.is_constant() for g in gb):
            return []
        n = self.ring.nvars
        lms = [g.leading_monomial() for g in gb]
        bounds = []
        for i in range(n):
            pure = [
                lm[i]
                for lm in lms
                if lm[i] > 0 and all(k == 0 for j, k in enumerate(lm) if j != i)
            ]
            if not pure:
                raise NotZeroDimensionalError(
                    f"no leading power of {self.ring.names[i]!r}: positive-dimensional"
                )
            bounds.append(min(pure))
        return [
            e
            for e in itertools.product(*(range(b) for b in bounds))
            if not any(exp_divides(lm, e) for lm in lms)
        ]


def _multiple_of(f: Polynomial, g: Polynomial) -> bool:
    """Whether f is a constant multiple of g, which is nonzero: the same
    monomials, with coefficients in one ratio."""
    if f.terms.keys() != g.terms.keys():
        return False
    m = next(iter(g.terms))
    a, b = f.terms[m], g.terms[m]
    return all(c * b == a * g.terms[e] for e, c in f.terms.items())


def _squarefree_initial(basis: Sequence[Polynomial]) -> bool:
    """Whether every leading monomial of the basis is squarefree."""
    return all(max(g.leading_monomial(), default=0) <= 1 for g in basis)


def _hitting_number(supports: set[int]) -> int:
    """The fewest bit positions that meet every mask in supports, none of
    them 0. A set of positions meets every mask exactly when it meets every
    minimal one, and it meets the smallest unmet mask in one of that mask's
    bits, so a branch and bound on those bits over the minimal masks finds
    the fewest; one position per minimal mask is the bound to start from."""
    minimal: list[int] = []
    for m in sorted(supports, key=int.bit_count):
        if not any(k & m == k for k in minimal):
            minimal.append(m)
    best = len(minimal)

    def search(unmet: list[int], size: int) -> None:
        nonlocal best
        if not unmet:
            best = size
            return
        if size + 1 >= best:
            return
        bits = unmet[0]
        while bits:
            bit = bits & -bits
            bits ^= bit
            search([m for m in unmet if not m & bit], size + 1)

    search(minimal, 0)
    return best


def _nonzerodivisor_modulo(f: Polynomial, ideal: Ideal) -> bool:
    """Whether one of Ideal.saturate's certificates shows that f, of total
    degree 1, no power of which divides a generator, is a nonzerodivisor
    modulo the ideal. The ring's order is grevlex. False means no
    certificate applies, not that f is a zerodivisor."""
    if len(ideal.gens) <= 1:
        return True
    graph = ideal._graph()
    if graph is not None and not _on_graph(f, *graph).is_zero():
        return True
    i = f.leading_monomial().index(1)
    if not any(g.leading_monomial()[i] for g in ideal.groebner()):
        return True
    return ideal.plus([f]).is_trivial()


def _rabinowitsch(ideal: Ideal, f: Polynomial) -> Ideal:
    """ideal : f^infinity as the elimination of t from ideal + (1 - t*f)."""
    t = fresh_name(ideal.ring.names)
    work = PolynomialRing((t, *ideal.ring.names), MonomialOrder.elim(1))
    gens = [g.in_ring(work) for g in ideal.gens]
    gens.append(work.one() - work.var(t) * f.in_ring(work))
    return Ideal(work, gens).eliminate({t})
