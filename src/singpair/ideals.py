"""Ideal arithmetic: Groebner bases, elimination, saturation, dimension.

The Buchberger loop charges every leading-term cancellation against a
reduction budget so runaway eliminations fail loudly instead of hanging.
A budget meter is installed per top-level Groebner computation unless the
caller scopes one explicitly with reduction_budget(); nested computations
(saturation, intersection, dimension) share the ambient meter.

The kernel works in place. normal_form divides into one mutable dict and
finds each next leading monomial with a heap keyed by the order's flat
descending key (polyring.Dividend). Its strategy is fixed: the leading term
is reduced by the first basis element, in basis order, whose leading
monomial divides it, one budget step is charged per such reduction, and a
leading term no element divides moves to the remainder. The S-pairs wait
in a heap, their keys computed once per pair. Under a degree-compatible
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
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    EmptyVarietyError,
    NotZeroDimensionalError,
    RingMismatchError,
)
from .polyring import (
    Dividend,
    Exponents,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
)

DEFAULT_BUDGET = 1_000_000


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


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of f on division by basis (first-divisor strategy)."""
    if not basis:
        return f
    ring = f.ring
    lead = []
    for g in basis:
        if g.ring is not ring and g.ring != ring:
            raise RingMismatchError(f"{ring} vs {g.ring}")
        lm_g = g.leading_monomial()
        lead.append((lm_g, g.terms[lm_g], g))
    p = Dividend(f)
    remainder: dict[Exponents, Fraction] = {}
    while (top := p.pop_leading()) is not None:
        lm, c = top
        for lm_g, lc_g, g in lead:
            if exp_divides(lm_g, lm):
                p.subtract(exp_sub(lm, lm_g), c / lc_g, g)
                _charge()
                break
        else:
            remainder[lm] = c
    return Polynomial(ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, built in one dict.

    The leading terms cancel exactly and are left out; a monic operand is
    not rescaled.
    """
    if f.ring is not g.ring and f.ring != g.ring:
        raise RingMismatchError(f"{f.ring} vs {g.ring}")
    l = exp_lcm(f.leading_monomial(), g.leading_monomial())

    def shifted(h: Polynomial):
        lm_h = h.leading_monomial()
        lc, shift = h.terms[lm_h], exp_sub(l, lm_h)
        tail = ((e, c) for e, c in h.terms.items() if e is not lm_h)
        if lc == 1:
            return ((exp_add(e, shift), c) for e, c in tail)
        return ((exp_add(e, shift), c / lc) for e, c in tail)

    terms = dict(shifted(f))
    for m, c in shifted(g):
        s = terms.get(m, 0) - c
        if s == 0:
            del terms[m]
        else:
            terms[m] = s
    return Polynomial(f.ring, terms)


def _interreduce(polys: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Monic, each element divided by the others until a pass changes
    nothing, sorted by ascending leading monomial.

    An element none of whose terms another element's leading monomial
    divides is kept without dividing: normal_form would charge nothing and
    return the same terms. Only their insertion order could differ, and
    no output reads it (printing, equality, hashing and canonical keys
    all sort terms).
    """
    basis = [p.monic() for p in polys if not p.is_zero()]
    changed = True
    while changed:
        changed = False
        out: list[Polynomial] = []
        for i, p in enumerate(basis):
            others = out + basis[i + 1 :]
            lead = [g.leading_monomial() for g in others]
            if not any(exp_divides(m, e) for e in p.terms for m in lead):
                out.append(p)
                continue
            # some term is divisible, so the remainder differs from p
            changed = True
            q = normal_form(p, others)
            if not q.is_zero():
                out.append(q.monic())
        basis = out
    if basis:
        key = basis[0].ring.order.sort_key
        basis.sort(key=lambda g: key(g.leading_monomial()))
    return tuple(basis)


# Exponent tuples and coefficients of recent reduced bases, by value. Bases
# are cached on their ideals and often kept, and bases built one after
# another repeat most monomials and many coefficients, also across variable
# orders: on the groebner_systems benchmark about 54% of the values a basis
# stores repeat within that basis, and 66-84% are found here. Emptied when
# it passes _POOL_LIMIT entries, which bounds what it pins.
_POOL_LIMIT = 4096
_pool: dict = {}


def _share_storage(basis: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """The same polynomials, with equal exponent tuples and equal coefficients
    stored once, within the basis and with recent bases."""
    if len(_pool) > _POOL_LIMIT:
        _pool.clear()
    share = _pool.setdefault
    return tuple(
        Polynomial(g.ring, {share(e, e): share(c, c) for e, c in g.terms.items()}) for g in basis
    )


def groebner(gens: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis (monic, interreduced, ascending leading terms)."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    if _active_meter.get() is None:
        with reduction_budget(DEFAULT_BUDGET):
            return _share_storage(_buchberger(gens))
    return _share_storage(_buchberger(gens))


def _buchberger(gens: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
    key = ring.order.sort_key
    basis = list(_interreduce(gens))
    if any(g.is_constant() for g in basis):
        return (ring.one(),)
    lead = [g.leading_monomial() for g in basis]
    # sugar: the total degree each element would have if every reduction kept
    # degrees homogeneous; an input element's is its total degree
    by_sugar = not ring.order.degree_compatible
    sugar = [g.total_degree() for g in basis]
    # the pairs still to treat, as a set for the chain criterion and as a heap
    # of (sugar, key of the lcm, i, j, lcm) that pops them by the smallest
    # sugar, then the smallest lcm, ties broken by (i, j); the sugar is 0 for
    # every pair under a degree-compatible order, where the lcm alone decides
    pending: set[tuple[int, int]] = set()
    queue: list[tuple[int, tuple, int, int, Exponents]] = []

    def add_pair(i: int, j: int) -> None:
        lcm = exp_lcm(lead[i], lead[j])
        pending.add((i, j))
        s = 0
        if by_sugar:
            d = sum(lcm)
            s = max(sugar[i] + d - sum(lead[i]), sugar[j] + d - sum(lead[j]))
        heappush(queue, (s, key(lcm), i, j, lcm))

    for j in range(len(basis)):
        for i in range(j):
            add_pair(i, j)

    while queue:
        s_ij, _, i, j, lcm_ij = heappop(queue)
        pending.discard((i, j))
        if exp_add(lead[i], lead[j]) == lcm_ij:
            continue  # coprime leading monomials
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not exp_divides(lead[k], lcm_ij):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                skip = True  # chain criterion
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
        sugar.append(s_ij)
        new = len(basis) - 1
        for k in range(new):
            add_pair(k, new)
    return _interreduce(basis)


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
        return self.normal_form(f).is_zero()

    def is_trivial(self) -> bool:
        gb = self.groebner()
        return any(g.is_constant() for g in gb)

    def is_zero(self) -> bool:
        return not self.groebner()

    def radical_contains(self, f: Polynomial) -> bool:
        """Membership in the radical, by the auxiliary-variable trick."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        if f.is_zero():
            return True
        t = fresh_name(self.ring.names)
        work = PolynomialRing((t, *self.ring.names), MonomialOrder.elim(1))
        tv = work.var(t)
        gens = [g.in_ring(work) for g in self.gens]
        gens.append(work.one() - tv * f.in_ring(work))
        return Ideal(work, gens).is_trivial()

    def variety_contained_in(self, other: "Ideal") -> bool:
        """True when every common zero of self is a zero of other."""
        return all(self.radical_contains(g) for g in other.gens)

    # -- constructions -------------------------------------------------------

    def plus(self, extra: Iterable[Polynomial] | "Ideal") -> "Ideal":
        if isinstance(extra, Ideal):
            extra = extra.gens
        return Ideal(self.ring, self.gens + tuple(extra))

    def in_ring(self, ring: PolynomialRing) -> "Ideal":
        return Ideal(ring, tuple(g.in_ring(ring) for g in self.gens))

    def eliminate(self, drop: Iterable[str]) -> "Ideal":
        """Project out variables: the ideal of relations among the rest."""
        dropset = {n for n in drop}
        for n in dropset:
            self.ring.index(n)
        if not dropset:
            return self
        kept = tuple(n for n in self.ring.names if n not in dropset)
        if not kept:
            raise ValueError("cannot eliminate every variable")
        ordered_drop = tuple(n for n in self.ring.names if n in dropset)
        work = PolynomialRing(ordered_drop + kept, MonomialOrder.elim(len(ordered_drop)))
        gb = groebner([g.in_ring(work) for g in self.gens])
        target = PolynomialRing(kept)
        out = [g.in_ring(target) for g in gb if not (g.variables_used() & dropset)]
        return Ideal(target, out)

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
        """The saturation self : f^infinity."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        if f.is_zero():
            raise ValueError("saturation by the zero polynomial")
        if f.is_constant():
            return self
        t = fresh_name(self.ring.names)
        work = PolynomialRing((t, *self.ring.names), MonomialOrder.elim(1))
        tv = work.var(t)
        gens = [g.in_ring(work) for g in self.gens]
        gens.append(work.one() - tv * f.in_ring(work))
        return Ideal(work, gens).eliminate({t}).in_ring(self.ring)

    def saturation_exponent(self, f: Polynomial, cap: int = 64) -> int:
        """Least e with f^e * (self : f^inf) contained in self."""
        sat = self.saturate(f)
        power = self.ring.one()
        for e in range(cap + 1):
            if all(self.contains(power * g) for g in sat.groebner()):
                return e
            power = power * f
        raise RuntimeError(f"saturation exponent above cap {cap}")

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
        leading-monomial staircase: the largest variable subset touching no
        leading monomial's support.
        """
        gb = self.groebner()
        if any(g.is_constant() for g in gb):
            raise EmptyVarietyError(f"{self!r} is the unit ideal")
        supports = [frozenset(i for i, k in enumerate(g.leading_monomial()) if k) for g in gb]
        n = self.ring.nvars
        for size in range(n, -1, -1):
            for subset in itertools.combinations(range(n), size):
                chosen = set(subset)
                if all(not s <= chosen for s in supports):
                    return size
        raise AssertionError("unreachable: the empty subset is always independent")

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
        gb = self.groebner()
        if any(g.is_constant() for g in gb):
            return 0
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
        count = 0
        for e in itertools.product(*(range(b) for b in bounds)):
            if not any(exp_divides(lm, e) for lm in lms):
                count += 1
        return count
