"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable: a ring (variable names plus a monomial order) and
a mapping from exponent tuples to nonzero Fraction coefficients. Everything
downstream (Groebner bases, blowup charts, intersection multiplicities)
assumes exact arithmetic, so coefficients are fractions.Fraction throughout
and no floating point ever enters.

Monomial orders are first-class values because elimination steps need block
orders and canonical output needs one agreed order per ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub
from typing import Callable, Iterable, Iterator, Mapping, Union

from .errors import ExactDivisionError, PolyParseError, RingMismatchError

Exponents = tuple[int, ...]
Scalar = Union[Fraction, int]


def exp_add(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def exp_sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def exp_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def exp_divides(a: Exponents, b: Exponents) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


@lru_cache(maxsize=None)
def _descending_key(kind: str, block: int) -> Callable[[Exponents], tuple]:
    """The elementwise negation of MonomialOrder(kind, block).sort_key."""
    if kind == "lex":
        return lambda e: tuple(map(neg, e))
    if kind == "grevlex":
        return lambda e: (-sum(e), *e[::-1])
    if kind == "elim":
        k = block
        return lambda e: (-sum(e[:k]), *e[k - 1 :: -1], -sum(e[k:]), *e[: k - 1 : -1])
    raise ValueError(f"unknown order kind {kind!r}")


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

    @property
    def descending_key(self) -> Callable[[Exponents], tuple]:
        """The negated sort_key: the largest monomial has the smallest key,
        so a heapq of these keys pops monomials in decreasing order."""
        return _descending_key(self.kind, self.block)

    def __str__(self) -> str:
        if self.kind == "elim":
            return f"elim({self.block})"
        return self.kind


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
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(n) for n in self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value: Scalar) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: value})

    def with_order(self, order: MonomialOrder) -> "PolynomialRing":
        return PolynomialRing(self.names, order)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def monomial(self, exps: Exponents, coeff: Scalar = 1) -> "Polynomial":
        if len(exps) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {tuple(exps): coeff})

    def __str__(self) -> str:
        return f"QQ[{', '.join(self.names)}; {self.order}]"


class Polynomial:
    """Immutable polynomial: exponent tuple -> nonzero Fraction.

    _lm caches the leading monomial, which is safe because terms is never
    mutated after construction.
    """

    __slots__ = ("ring", "terms", "_lm")

    def __init__(self, ring: PolynomialRing, terms: Mapping[Exponents, Fraction]) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c != 0})
        object.__setattr__(self, "_lm", None)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
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

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
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
            object.__setattr__(self, "_lm", lm)
        return lm

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return Polynomial(self.ring, {e: c / lc for e, c in self.terms.items()})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
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
                    terms[e] = s
                else:
                    del terms[e]
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return self.ring.const(other) - self

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms: dict[Exponents, Fraction] = {}
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
        return Polynomial(self.ring, terms)

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
        """Quotient self/other when the division is exact."""
        self._check(other)
        if other.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        lm_o = other.leading_monomial()
        lc_o = other.terms[lm_o]
        rem = Dividend(self)
        quotient: dict[Exponents, Fraction] = {}
        while (top := rem.pop_leading()) is not None:
            lm_r, c = top
            if not exp_divides(lm_o, lm_r):
                raise ExactDivisionError(f"{other} does not divide {self}")
            shift = exp_sub(lm_r, lm_o)
            q = c / lc_o
            quotient[shift] = q
            rem.subtract(shift, q, other)
        return Polynomial(self.ring, quotient)

    def divides(self, other: "Polynomial") -> bool:
        try:
            other.exact_div(self)
            return True
        except ExactDivisionError:
            return False

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

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
            if isinstance(value, (int, Fraction)):
                images[name] = ring.const(value)
            else:
                if value.ring != ring:
                    raise RingMismatchError("binding values must share the target ring")
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
        out: dict[Exponents, Fraction] = {}
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
        return Polynomial(ring, out)

    def in_ring(self, ring: PolynomialRing) -> "Polynomial":
        """Transport to another ring by variable name.

        Same result as substitute({}, ring), computed by moving exponents:
        every variable used must exist in ring, and other variables of
        self.ring are dropped, so no two terms meet.
        """
        if ring == self.ring:
            return self
        for name in self.variables_used():
            ring.index(name)
        names = self.ring.names
        # position in a source exponent tuple padded with one 0, per target variable
        where = [names.index(n) if n in names else -1 for n in ring.names]
        return Polynomial(
            ring, {tuple(map((e + (0,)).__getitem__, where)): c for e, c in self.terms.items()}
        )

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for i, k in enumerate(e):
                if k:
                    name = self.ring.names[i]
                    if name not in point:
                        raise KeyError(f"no value for variable {name!r}")
                    val *= Fraction(point[name]) ** k
            total += val
        return total

    def differentiate(self, name: str) -> "Polynomial":
        i = self.ring.index(name)
        # lowering exponent i is one to one on the terms that have it, so no
        # two terms meet and nothing cancels
        return Polynomial(
            self.ring,
            {(*e[:i], e[i] - 1, *e[i + 1 :]): c * e[i] for e, c in self.terms.items() if e[i]},
        )

    def homogenize(self, ring: PolynomialRing, var: str) -> "Polynomial":
        """Homogenize with respect to var, writing the result in ring."""
        j = ring.index(var)
        d = self.total_degree()
        terms: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            new = [0] * ring.nvars
            for i, k in enumerate(e):
                if k:
                    new[ring.index(self.ring.names[i])] = k
            new[j] += d - sum(e)
            terms[tuple(new)] = c
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


class Dividend:
    """A polynomial being divided, held in place.

    The terms live in one mutable dict and their monomials in a heap keyed
    by the order's descending_key, so the leading term is found without a
    scan and subtracting a multiple of a divisor touches only the divisor's
    terms. A monomial that cancels keeps its heap entry, which is skipped
    when it surfaces. Every monomial subtract() adds lies below the term
    just popped, so a popped monomial never comes back.
    """

    __slots__ = ("terms", "_heap", "_key")

    def __init__(self, f: Polynomial) -> None:
        self.terms = dict(f.terms)
        self._key = key = f.ring.order.descending_key
        self._heap = [(key(e), e) for e in self.terms]
        heapify(self._heap)

    def pop_leading(self) -> tuple[Exponents, Fraction] | None:
        """Remove and return the leading term, or None once nothing is left."""
        heap, terms = self._heap, self.terms
        while heap:
            e = heappop(heap)[1]
            c = terms.pop(e, None)
            if c is not None:
                return e, c
        return None

    def subtract(self, shift: Exponents, q: Fraction, g: Polynomial) -> None:
        """Subtract q * x^shift * g, whose leading term cancels the one just popped."""
        terms, heap, key = self.terms, self._heap, self._key
        lm_g = g.leading_monomial()
        for e, c in g.terms.items():
            if e is lm_g:
                continue
            m = exp_add(e, shift)
            old = terms.get(m)
            if old is None:
                terms[m] = -q * c
                heappush(heap, (key(m), m))
            else:
                s = old - q * c
                if s:
                    terms[m] = s
                else:
                    del terms[m]


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
