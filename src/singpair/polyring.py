"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable: a ring (variable names plus a monomial order) and
a mapping from exponent tuples to nonzero coefficients. Everything
downstream (Groebner bases, blowup charts, intersection multiplicities)
assumes exact arithmetic, so a coefficient is an int exactly when it is
integral and a fractions.Fraction otherwise, never a float. The Groebner
kernel keeps the same convention, so nothing converts at its boundary, and
int arithmetic serves the small integers nearly every coefficient is. Equal
ints and Fractions hash and compare equal, so the convention changes no key.

Monomial orders are first-class values because elimination steps need block
orders and canonical output needs one agreed order per ring. Each order
also packs monomials into ints laid out for it (Packing), the form the
Groebner kernel and exact division compute in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add, itemgetter, le, mul, neg
from typing import Mapping, Union

from .errors import ExactDivisionError, ExponentOverflowError, PolyParseError, RingMismatchError

Exponents = tuple[int, ...]
Scalar = Union[Fraction, int]


def _coefficient(value: object) -> Scalar:
    """value as a coefficient: an int when it is integral, a Fraction
    otherwise. TypeError for anything else, floats included: a float is
    not exact."""
    if isinstance(value, int):
        return int(value)  # a bool becomes 0 or 1
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"coefficient {value!r} is not an int or a Fraction")


def _integral(terms: dict) -> dict:
    """terms, each integral Fraction replaced by its int in place."""
    for e, c in terms.items():
        if c.__class__ is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly: an int when it is integral, a Fraction otherwise."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def exp_add(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def exp_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def exp_divides(a: Exponents, b: Exponents) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order usable as a max() key.

    kind is one of "lex", "grevlex", "elim". For "elim", block is the size
    of the leading variable block; both blocks are compared by grevlex, so
    the order eliminates the first block variables.
    """

    kind: str = "grevlex"
    block: int = 0

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def elim(block: int) -> "MonomialOrder":
        if block <= 0:
            raise ValueError("elimination block must be positive")
        return MonomialOrder("elim", block)

    def sort_key(self, exps: Exponents) -> tuple:
        """A flat tuple, larger for larger monomials.

        grevlex compares the total degree, then the negated exponents from
        the last variable back; elim compares its two blocks that way in
        turn, the leading block first.
        """
        if self.kind == "lex":
            return exps
        if self.kind == "grevlex":
            return (sum(exps), *map(neg, reversed(exps)))
        if self.kind == "elim":
            k = self.block
            return (
                sum(exps[:k]), *map(neg, reversed(exps[:k])),
                sum(exps[k:]), *map(neg, reversed(exps[k:])),
            )
        raise ValueError(f"unknown order kind {self.kind!r}")

    @property
    def degree_compatible(self) -> bool:
        """Whether a monomial of larger total degree is always larger.

        Only grevlex is: lex and elim compare a leading block first.
        """
        return self.kind == "grevlex"

    def packing(self, nvars: int, bits: int | None = None) -> "Packing":
        """The packed-int layout of this order on nvars variables, with
        fields of `bits` bits (PACK_BITS by default); built on first use."""
        return _packing(self, nvars, bits or PACK_BITS)

    def __str__(self) -> str:
        if self.kind == "elim":
            return f"elim({self.block})"
        return self.kind


# Field width, guard bit included, of a packed monomial: exponents and block
# degrees up to 127. The Groebner kernel widens the fields when a
# computation makes a monomial they cannot hold.
PACK_BITS = 8


class Packing:
    """Monomials in nvars variables as ints, laid out for one monomial order
    (Bachmann and Schoenemann, "Monomial representations for Groebner bases
    computations", ISSAC 1998).

    pack(e) = zero + sum(e[i] * weights[i]) is a row of fields of `bits`
    bits each, the most significant first, that spells out the order's
    sort_key: lex has one field per variable; grevlex has the total degree,
    then the variables from the last back; elim(k) has the same for each
    of its two blocks in turn. The field of a variable that sort_key
    negates holds 2**bits - 1 - e[i]. As long as every exponent and block
    degree is at most `limit`:

    - comparing packed ints compares the monomials;
    - pack(a) + pack(b) - zero == pack(a + b), when a + b fits;
    - the top bit of each field, its guard, is set exactly in the negated
      fields, so `m & guards != valid` flags a sum that does not fit;
    - a divides b exactly when `(probe(a) + sign * b) & divisor_mask` is 0.

    unpack() recovers the exponent tuple.
    """

    __slots__ = ("order", "nvars", "bits", "limit", "zero", "weights", "guards", "valid",
                 "sign", "divisor_mask", "_degree_guards", "_shifts", "_blocks")

    def __init__(self, order: "MonomialOrder", nvars: int, bits: int) -> None:
        if bits < 2:
            raise ValueError("a packed field needs a guard bit and a value bit")
        n = nvars
        if order.kind == "lex":
            blocks: tuple[range, ...] = ()
        elif order.kind == "grevlex":
            blocks = (range(n),)
        elif order.kind == "elim":
            blocks = (range(order.block), range(order.block, n))
        else:
            raise ValueError(f"unknown order kind {order.kind!r}")
        # fields from the most significant: a block's degree (a range), then
        # its variables (their indices) from the last back
        fields = [f for b in blocks for f in (b, *reversed(b))] if blocks else list(range(n))
        negated = bool(blocks)
        ones = (1 << bits) - 1
        zero = guards = degree_guards = 0
        weights = [0] * n
        shifts = [0] * n
        for f, field in enumerate(reversed(fields)):
            shift = bits * f
            guard = 1 << (shift + bits - 1)
            guards |= guard
            if isinstance(field, range):
                degree_guards |= guard
                for i in field:
                    weights[i] += 1 << shift
            else:
                weights[field] += -(1 << shift) if negated else 1 << shift
                shifts[field] = shift
                if negated:
                    zero += ones << shift
        self.order = order
        self.nvars = n
        self.bits = bits
        self.limit = (1 << (bits - 1)) - 1
        self.zero = zero
        self.weights = tuple(weights)
        self.guards = guards
        self.divisor_mask = guards & ~degree_guards
        self.valid = self.divisor_mask if negated else 0
        self.sign = -1 if negated else 1
        self._degree_guards = degree_guards
        self._shifts = tuple(shifts)
        self._blocks = tuple(slice(b.start, b.stop) for b in blocks)

    def pack(self, e: Exponents) -> int:
        """The packed monomial; ExponentOverflowError when e does not fit."""
        limit = self.limit
        blocks = self._blocks
        if len(blocks) == 1:  # grevlex: the block is every variable
            if sum(e) > limit:
                raise ExponentOverflowError(f"{e} has a block degree above {limit}")
        elif blocks:
            for block in blocks:
                if sum(e[block]) > limit:
                    raise ExponentOverflowError(f"{e} has a block degree above {limit}")
        elif e and max(e) > limit:
            raise ExponentOverflowError(f"{e} has an exponent above {limit}")
        return self.zero + sum(map(mul, e, self.weights))

    def unpack(self, m: int) -> Exponents:
        ones = (1 << self.bits) - 1
        if self.sign < 0:
            return tuple([ones - ((m >> s) & ones) for s in self._shifts])
        return tuple([(m >> s) & ones for s in self._shifts])

    def check(self, m: int) -> int:
        """m, the sum of two packed monomials less zero, if it fits the fields."""
        if m & self.guards != self.valid:
            raise ExponentOverflowError(f"a product does not fit {self.bits}-bit fields")
        return m

    def probe(self, a: int) -> int:
        """The form of a divisor that the divisibility test adds to sign * b.

        lex: b - a keeps every field at or above 0, and so every guard
        clear, exactly when a divides b. Negated fields turn the difference
        round, to a - b, whose degree fields get their guard bit added so
        that they cannot borrow from the field above.
        """
        return -a if self.sign > 0 else a | self._degree_guards

    def divides(self, a: int, b: int) -> bool:
        """True when monomial a divides monomial b (both packed)."""
        return not (self.probe(a) + self.sign * b) & self.divisor_mask


@lru_cache(maxsize=None)
def _packing(order: "MonomialOrder", nvars: int, bits: int) -> Packing:
    return Packing(order, nvars, bits)


@dataclass(frozen=True)
class PolynomialRing:
    """QQ[names] with a fixed monomial order."""

    names: tuple[str, ...]
    order: MonomialOrder = MonomialOrder()

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        if self.order.kind == "elim" and not 0 < self.order.block < len(self.names):
            raise ValueError("elimination block must split the variables")

    def __eq__(self, other: object) -> bool:
        # nearly every arithmetic call compares rings, mostly a ring with itself
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.names, self.order) == (other.names, other.order)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"variable {name!r} not in ring {self}") from None

    def var(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial._new(self, {tuple(exps): 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(n) for n in self.names)

    def zero(self) -> "Polynomial":
        return Polynomial._new(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value: Scalar) -> "Polynomial":
        value = _coefficient(value)
        return Polynomial._new(self, {(0,) * self.nvars: value} if value else {})

    def with_order(self, order: MonomialOrder) -> "PolynomialRing":
        return PolynomialRing(self.names, order)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def __str__(self) -> str:
        return f"QQ[{', '.join(self.names)}; {self.order}]"


class Polynomial:
    """Immutable polynomial: exponent tuple -> nonzero coefficient, an int
    when integral and a Fraction otherwise.

    The constructor copies terms, drops zeros, turns integral Fractions into
    ints and raises TypeError on a float or any other non-rational value.
    Arithmetic that builds a fresh dict in that form wraps it with _new,
    without a second copy. _lm caches the leading monomial and _hash the
    hash, which is safe because terms is never mutated after construction.
    """

    __slots__ = ("ring", "terms", "_lm", "_hash")

    def __init__(self, ring: PolynomialRing, terms: Mapping[Exponents, Scalar]) -> None:
        clean = {}
        for e, c in terms.items():
            if c.__class__ is not int:
                c = _coefficient(c)
            if c:
                clean[e] = c
        _set_ring(self, ring)
        _set_terms(self, clean)
        _set_lm(self, None)
        _set_hash(self, None)

    @classmethod
    def _new(cls, ring: PolynomialRing, terms: dict) -> "Polynomial":
        """A polynomial that takes terms as they are, not copied: a fresh
        dict whose coefficients are nonzero and already ints when integral."""
        p = _object_new(cls)
        _set_ring(p, ring)
        _set_terms(p, terms)
        _set_lm(p, None)
        _set_hash(p, None)
        return p

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self) -> tuple:
        # rebuilt through the constructor, which never assigns an attribute
        return (self.__class__, (self.ring, self.terms))

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.ring.index(name)
        return max(e[i] for e in self.terms)

    def variables_used(self) -> set[str]:
        used: set[str] = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k > 0:
                    used.add(self.ring.names[i])
        return used

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in decreasing monomial order."""
        key = self.ring.order.sort_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading_monomial(self) -> Exponents:
        """The largest monomial, computed once; it is a key object of terms."""
        lm = self._lm
        if lm is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading monomial")
            lm = max(self.terms, key=self.ring.order.sort_key)
            _set_lm(self, lm)
        return lm

    def leading_coefficient(self) -> Scalar:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return Polynomial._new(self.ring, {e: _quotient(c, lc) for e, c in self.terms.items()})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.const(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            old = terms.get(e)
            if old is None:
                terms[e] = c
            else:
                s = old + c
                if s:
                    terms[e] = s if s.__class__ is int or s.denominator != 1 else s.numerator
                else:
                    del terms[e]
        return Polynomial._new(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._new(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.ring.const(other) - self

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coefficient(other)
            if not other:
                return self.ring.zero()
            return Polynomial._new(
                self.ring, _integral({e: c * other for e, c in self.terms.items()})
            )
        self._check(other)
        terms: dict[Exponents, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exp_add(e1, e2)
                old = terms.get(e)
                if old is None:
                    terms[e] = c1 * c2
                else:
                    s = old + c1 * c2
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return Polynomial._new(self.ring, _integral(terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        if exponent == 0:
            return self.ring.one()
        # square-and-multiply from the lowest bit; the first factor is taken
        # as it is and the base is squared only while higher bits remain
        result = None
        base = self
        n = exponent
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Quotient self/other when the division is exact; ExactDivisionError
        otherwise.

        Division runs in place on the ring order's packed monomials: one
        dict of the terms left and a heap of their negated packed monomials,
        which pops the leading one. A monomial that cancels keeps its heap
        entry and is skipped when it surfaces; every monomial a step adds
        lies below the one just popped, so a popped monomial never comes
        back. When other divides self, the Newton polytope of self is that
        of other plus that of the quotient, so every monomial of other, of
        the quotient and of each remainder fits the fields that hold self:
        the fields widen only until self packs, and a monomial that does
        not fit them shows the division is inexact.
        """
        self._check(other)
        if other.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        quotient = self._exact_quotient(other)
        if quotient is None:
            raise ExactDivisionError(f"{other} does not divide {self}")
        return quotient

    def _exact_quotient(self, other: "Polynomial") -> "Polynomial | None":
        """exact_div's quotient, or None when the division is inexact; other
        is nonzero and in self's ring."""
        order, n = self.ring.order, self.ring.nvars
        packing = order.packing(n)
        while True:
            try:
                terms = dict(zip(map(packing.pack, self.terms), self.terms.values()))
                break
            except ExponentOverflowError:
                packing = order.packing(n, 2 * packing.bits)
        lead = other.leading_monomial()
        lc = other.terms[lead]
        guards, valid = packing.guards, packing.valid
        heap = [-m for m in terms]
        heapify(heap)
        quotient: dict[int, Scalar] = {}
        try:
            lm = packing.pack(lead)
            tail = [(packing.pack(e), c) for e, c in other.terms.items() if e != lead]
            while heap:
                m = -heappop(heap)
                c = terms.pop(m, None)
                if c is None:
                    continue
                if not packing.divides(lm, m):
                    break
                shift = m - lm
                q = quotient[shift] = _quotient(c, lc)
                for e, d in tail:
                    t = e + shift
                    if t & guards != valid:
                        packing.check(t)
                    old = terms.get(t)
                    if old is None:
                        terms[t] = -q * d
                        heappush(heap, -t)
                    else:
                        s = old - q * d
                        if s:
                            terms[t] = s
                        else:
                            del terms[t]
            else:
                unpack, zero = packing.unpack, packing.zero
                return Polynomial._new(
                    self.ring, {unpack(s + zero): q for s, q in quotient.items()}
                )
        except ExponentOverflowError:
            pass  # other, or a product, does not fit the fields that hold self
        return None

    def strip_powers(self, f: "Polynomial") -> tuple["Polynomial", int]:
        """(q, k) with self = f^k * q and f not dividing q: self divided by
        the highest power of f that divides it. self is nonzero and f is
        not constant."""
        self._check(f)
        if f.is_constant():
            raise ValueError("cannot strip powers of a constant")
        lead = f.leading_monomial()
        g, k = self, 0
        while exp_divides(lead, g.leading_monomial()):  # needed for f to divide g
            quotient = g._exact_quotient(f)
            if quotient is None:
                break
            g, k = quotient, k + 1
        return g, k

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            _set_hash(self, h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- mapping to other rings -------------------------------------------

    def substitute(
        self,
        bindings: Mapping[str, Union["Polynomial", Scalar]],
        ring: PolynomialRing | None = None,
    ) -> "Polynomial":
        """Substitute for variables; unbound names map to same-named variables.

        The target ring defaults to the ring of the first Polynomial binding,
        falling back to self.ring. Every variable actually used must either be
        bound or exist in the target ring.
        """
        if ring is None:
            for v in bindings.values():
                if isinstance(v, Polynomial):
                    ring = v.ring
                    break
            else:
                ring = self.ring
        images: dict[str, Polynomial] = {}
        for name, value in bindings.items():
            self.ring.index(name)  # reject bindings for foreign variables
            if not isinstance(value, Polynomial):
                images[name] = ring.const(value)
            elif value.ring != ring:
                raise RingMismatchError("binding values must share the target ring")
            else:
                images[name] = value
        for name in self.variables_used():
            if name not in images:
                images[name] = ring.var(name)
        powers: dict[tuple[str, int], Polynomial] = {}

        def power(name: str, k: int) -> Polynomial:
            got = powers.get((name, k))
            if got is None:
                got = images[name] ** k
                powers[(name, k)] = got
            return got

        # a term's image is the product of its powers, scaled by c as it is
        # added in: no product with the one-term constant c
        one = ring.one()
        out: dict[Exponents, Scalar] = {}
        for e, c in self.terms.items():
            piece = one
            for i, k in enumerate(e):
                if k:
                    p = power(self.ring.names[i], k)
                    piece = p if piece is one else piece * p
            for m, v in piece.terms.items():
                old = out.get(m)
                if old is None:
                    out[m] = c * v
                else:
                    s = old + c * v
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Polynomial._new(ring, _integral(out))

    def in_ring(self, ring: PolynomialRing) -> "Polynomial":
        """Transport to another ring by variable name.

        Same result as substitute({}, ring), computed by moving exponents:
        every variable used must exist in ring, and other variables of
        self.ring are dropped, so no two terms meet. The move depends only
        on the two name tuples and is worked out once per pair.
        """
        if ring == self.ring:
            return self
        terms = self.terms
        if ring.names == self.ring.names:
            return Polynomial._new(ring, terms)  # terms is never mutated: share it
        move, padded, dropped = _transport(self.ring.names, ring.names)
        if dropped and any(e[i] for e in terms for i in dropped):
            used = self.variables_used()
            for i in dropped:
                if self.ring.names[i] in used:
                    ring.index(self.ring.names[i])  # raises the KeyError
        keys = map(move, [e + (0,) for e in terms] if padded else terms)
        return Polynomial._new(ring, dict(zip(keys, terms.values())))

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """The value at a rational point; TypeError for a float coordinate."""
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for i, k in enumerate(e):
                if k:
                    name = self.ring.names[i]
                    if name not in point:
                        raise KeyError(f"no value for variable {name!r}")
                    val *= _coefficient(point[name]) ** k
            total += val
        return total

    def differentiate(self, name: str) -> "Polynomial":
        i = self.ring.index(name)
        # lowering exponent i is one to one on the terms that have it, so no
        # two terms meet and nothing cancels
        return Polynomial._new(
            self.ring,
            _integral(
                {(*e[:i], e[i] - 1, *e[i + 1 :]): c * e[i] for e, c in self.terms.items() if e[i]}
            ),
        )

    def homogenize(self, ring: PolynomialRing, var: str) -> "Polynomial":
        """Homogenize with respect to var, writing the result in ring.

        Terms that land on the same monomial add up: (z + 1) homogenized
        by z is 2*z.
        """
        j = ring.index(var)
        d = self.total_degree()
        terms: dict[Exponents, Scalar] = {}
        for e, c in self.terms.items():
            new = [0] * ring.nvars
            for i, k in enumerate(e):
                if k:
                    new[ring.index(self.ring.names[i])] = k
            new[j] += d - sum(e)
            key = tuple(new)
            terms[key] = terms.get(key, 0) + c
        return Polynomial(ring, terms)

    # -- printing ----------------------------------------------------------

    def _monomial_str(self, e: Exponents) -> str:
        parts = []
        for i, k in enumerate(e):
            if k == 1:
                parts.append(self.ring.names[i])
            elif k > 1:
                parts.append(f"{self.ring.names[i]}^{k}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for e, c in self.sorted_terms():
            mono = self._monomial_str(e)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<{self} in {self.ring}>"


_object_new = object.__new__
# the slot setters: Polynomial.__setattr__ refuses every assignment
_set_ring = Polynomial.ring.__set__
_set_terms = Polynomial.terms.__set__
_set_lm = Polynomial._lm.__set__
_set_hash = Polynomial._hash.__set__


@lru_cache(maxsize=1024)
def _transport(source: tuple[str, ...], target: tuple[str, ...]) -> tuple:
    """How in_ring moves an exponent tuple from the source names to the
    target names: (move, padded, dropped). move maps a source tuple, with
    one 0 appended when padded, to the target tuple; a target name that
    the source lacks reads that 0. dropped lists the source positions that
    the target lacks, whose exponents must be 0."""
    where = [source.index(n) if n in source else len(source) for n in target]
    dropped = tuple(i for i, n in enumerate(source) if n not in target)
    if len(where) == 1:  # itemgetter of one index gives the item, not a tuple
        i = where[0]
        move = lambda e: (e[i],)
    else:
        move = itemgetter(*where) if where else lambda e: ()
    return move, len(source) in where, dropped


# -- parsing ----------------------------------------------------------------


class _Parser:
    """Recursive descent for +, -, *, ^ (or **), parentheses, fractions.

    Multiplication must be explicit: names may be several characters long, so
    juxtaposition like 2xy would be ambiguous.
    """

    def __init__(self, text: str, ring: PolynomialRing) -> None:
        self.text = text
        self.ring = ring
        self.pos = 0

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Polynomial:
        result = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return result

    def expr(self) -> Polynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.text[self.pos] == "-":
                sign = -sign
            self.pos += 1
        result = self.term() * sign
        while True:
            ch = self.peek()
            if ch not in ("+", "-"):
                return result
            self.pos += 1
            sign = 1 if ch == "+" else -1
            while self.peek() in ("+", "-"):
                if self.text[self.pos] == "-":
                    sign = -sign
                self.pos += 1
            result = result + self.term() * sign

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            self.skip_ws()
            if self.text.startswith("**", self.pos):
                return result  # power handled inside factor
            if self.peek() == "*":
                self.pos += 1
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        base = self.base()
        self.skip_ws()
        if self.text.startswith("**", self.pos):
            self.pos += 2
            return base ** self.integer("exponent")
        if self.peek() == "^":
            self.pos += 1
            return base ** self.integer("exponent")
        return base

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return inner
        if ch.isdigit():
            num = self.integer("number")
            self.skip_ws()
            if self.peek() == "/" :
                self.pos += 1
                den = self.integer("denominator")
                if den == 0:
                    raise self.error("zero denominator")
                return self.ring.const(Fraction(num, den))
            return self.ring.const(num)
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in self.ring.names:
                self.pos = start
                raise self.error(f"unknown variable {name!r}")
            return self.ring.var(name)
        raise self.error("expected a number, variable, or '('" if ch else "unexpected end of input")

    def integer(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {what}")
        return int(self.text[start : self.pos])


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    return _Parser(text, ring).parse()


def parse_many(text: str, ring: PolynomialRing, sep: str = ";") -> list[Polynomial]:
    """Parse a separator-delimited generator list, skipping empty pieces."""
    out = []
    for piece in text.split(sep):
        if piece.strip():
            out.append(parse_polynomial(piece, ring))
    return out
