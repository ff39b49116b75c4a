"""Polynomial factorization over the rationals in small degree.

Every polynomial is first split by its monomial content, its content in
its main variable and its squarefree part f / gcd(f, f'); all of this, and
all other arithmetic over Q, runs on Polynomial. A squarefree univariate
factor is then factored modularly: Berlekamp over a small prime p, Hensel
lifting to a Mignotte-sized modulus p^k, recombination by subsets
(Zassenhaus; von zur Gathen and Gerhard, Modern Computer Algebra, ch. 15).
Dense coefficient lists hold only integers mod p or mod p^k, and one dense
kernel (_p_mul, _p_add, _p_sub, _p_divmod) serves both moduli: every
divisor mod p^k is monic, so no inverse other than 1 is needed there.
A bivariate polynomial, made monic in x, is factored on a generic line
u = c and lifted along it to precision u^K, K above its degree in u. A
trivariate one is packed into two variables by Kronecker substitution and
factored there; subsets of the image's factors are unpacked. One Hensel
lift (_hensel_pair, _hensel_multi), given the coefficient arithmetic and a
ladder of precisions, serves p^k and u^K, and one recombination
(_recombine) serves all three paths: it tries subsets smallest first and
verifies each candidate by exact division, which keeps the method sound
and complete. Multiplicities are recovered by trial division.

factor() takes at most MAX_VARS = 3 variables, of any degree, and raises
FactorScopeError beyond that. Every factorization is checked by
multiplying back. Inside ideals.groebner_memo() each polynomial is
factored once.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import reduce
from math import gcd as int_gcd
from typing import Iterable

from .errors import FactorScopeError
from .ideals import remembered
from .polyring import Polynomial, PolynomialRing, Scalar

MAX_VARS = 3

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
           71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149)


# -- dense univariate helpers (lists low-to-high, no trailing zeros) ----------


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _deg(a: list) -> int:
    return len(a) - 1


def _int_primitive(coeffs: list) -> list[int]:
    """The primitive integer multiple of coeffs with positive leading coefficient."""
    coeffs = [Fraction(c) for c in coeffs]
    if not _trim(list(coeffs)):
        raise ValueError("zero polynomial")
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // int_gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    g = 0
    for c in ints:
        g = int_gcd(g, abs(c))
    ints = [c // g for c in ints]
    sign = 1 if ints[-1] > 0 else -1
    return _trim([sign * c for c in ints])


def _int_divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    assert b and b[-1] == 1
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and r:
        c = r[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        _trim(r)
    return _trim(q), r


# -- arithmetic mod p, or mod p^k for a monic divisor -------------------------


def _p_norm(a: list[int], p: int) -> list[int]:
    return _trim([c % p for c in a])


def _p_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _p_add(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x % p
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p
    return _trim(out)


def _p_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x % p
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return _trim(out)


def _p_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = [c % p for c in a]
    _trim(r)
    while len(r) >= len(b) and r:
        c = (r[-1] * inv) % p
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] = (r[k + i] - c * y) % p
        _trim(r)
    return _trim(q), r


def _p_monic(a: list[int], p: int) -> list[int]:
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _p_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _p_norm(a, p), _p_norm(b, p)
    while b:
        a, b = b, _p_divmod(a, b, p)[1]
    return _p_monic(a, p)


def _p_ext_euclid(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b = 1 mod p, deg s < deg b, deg t < deg a."""
    r0, r1 = _p_norm(a, p), _p_norm(b, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _p_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _p_sub(s0, _p_mul(q, s1, p), p)
        t0, t1 = t1, _p_sub(t0, _p_mul(q, t1, p), p)
    assert _deg(r0) == 0
    inv = pow(r0[0], -1, p)
    s = [(c * inv) % p for c in s0]
    _, s = _p_divmod(s, b, p)
    num = _p_sub([1], _p_mul(s, a, p), p)
    t, rem = _p_divmod(num, b, p)
    assert not rem
    return s, t


def _p_powmod_x(e: int, f: list[int], p: int) -> list[int]:
    """x^e mod f over F_p."""
    result = [1]
    base = _p_divmod([0, 1], f, p)[1]
    while e:
        if e & 1:
            result = _p_divmod(_p_mul(result, base, p), f, p)[1]
        base = _p_divmod(_p_mul(base, base, p), f, p)[1]
        e >>= 1
    return result


def _p_nullspace(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {x : M x = 0} over F_p for square M given as rows."""
    n = len(rows)
    m = [list(r) for r in rows]
    pivots: dict[int, int] = {}
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, n):
            if m[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [(c * inv) % p for c in m[row]]
        for r in range(n):
            if r != row and m[r][col] % p:
                factor_ = m[r][col]
                m[r] = [(a - factor_ * b) % p for a, b in zip(m[r], m[row])]
        pivots[col] = row
        row += 1
    basis = []
    for col in range(n):
        if col in pivots:
            continue
        vec = [0] * n
        vec[col] = 1
        for pc, pr in pivots.items():
            vec[pc] = (-m[pr][col]) % p
        basis.append(vec)
    return basis


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over F_p."""
    n = _deg(f)
    if n == 1:
        return [f]
    xp = _p_powmod_x(p, f, p)
    rows = []
    cur = [1]
    for _ in range(n):
        rows.append(list(cur) + [0] * (n - len(cur)))
        cur = _p_divmod(_p_mul(cur, xp, p), f, p)[1]
    # left nullspace of (Q - I): solve (Q - I)^T x = 0
    a = [[(rows[i][j] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    at = [[a[i][j] for i in range(n)] for j in range(n)]
    basis = _p_nullspace(at, p)
    r = len(basis)
    if r == 1:
        return [f]
    factors = [f]
    for v in basis:
        if len(factors) == r:
            break
        vpoly = _trim(list(v))
        if _deg(vpoly) < 1:
            continue
        refined: list[list[int]] = []
        for g in factors:
            if _deg(g) <= 1:
                refined.append(g)
                continue
            rem = g
            pieces: list[list[int]] = []
            for c in range(p):
                if _deg(rem) < 1:
                    break
                shifted = _p_sub(vpoly, [c], p)
                h = _p_gcd(rem, shifted, p)
                if 0 < _deg(h) < _deg(rem):
                    pieces.append(h)
                    rem = _p_divmod(rem, h, p)[0]
                elif _deg(h) == _deg(rem):
                    break
            if _deg(rem) >= 1:
                pieces.append(rem)
            refined.extend(pieces if pieces else [g])
        factors = refined
    assert len(factors) == r, "Berlekamp split incomplete"
    return sorted((_p_monic(g, p) for g in factors), key=lambda g: (len(g), g))


# -- Hensel lifting and recombination ----------------------------------------
#
# The lift runs on any coefficient arithmetic: ops = (mul, add, sub, divmod,
# one, bezout), each operation taking the precision it works at, and divmod
# dividing by a monic divisor. The dense path works mod p^k, on the _p_
# kernel; the bivariate path works mod u^k, on truncated Polynomials.


def _hensel_pair(f, g, h, s, t, ops: tuple, ladder: list) -> tuple:
    """Lift f = g*h, with s*g + t*h = 1, from the first precision of the
    ladder to the last, one quadratic step per rung (von zur Gathen and
    Gerhard, Alg. 15.10); f, g and h are monic."""
    mul, add, sub, divmod_, one, _ = ops
    for m in ladder[1:]:
        e = sub(f, mul(g, h, m), m)
        q, r = divmod_(mul(s, e, m), h, m)
        g = add(g, add(mul(t, e, m), mul(q, g, m), m), m)
        h = add(h, r, m)
        b = sub(add(mul(s, g, m), mul(t, h, m), m), one, m)
        c, d = divmod_(mul(s, b, m), h, m)
        s = sub(s, d, m)
        t = sub(t, add(mul(t, b, m), mul(c, g, m), m), m)
    return g, h


def _hensel_multi(f, facs: list, ops: tuple, ladder: list) -> list:
    """facs, the monic pairwise coprime factors of f at the first precision
    of the ladder, lifted to the last, at which f is given (Alg. 15.17)."""
    if len(facs) == 1:
        return [f]
    mul, _, _, _, _, bezout = ops
    m = ladder[0]
    k = len(facs) // 2
    g0 = reduce(lambda a, b: mul(a, b, m), facs[:k])
    h0 = reduce(lambda a, b: mul(a, b, m), facs[k:])
    s, t = bezout(g0, h0, m)
    g, h = _hensel_pair(f, g0, h0, s, t, ops, ladder)
    return _hensel_multi(g, facs[:k], ops, ladder) + _hensel_multi(h, facs[k:], ops, ladder)


def _recombine(f, pieces: list, combine, divide) -> list:
    """The irreducible factors of f, from the pieces its image splits into
    (Zassenhaus). Subsets of pieces are tried smallest first: candidate =
    combine(subset) is a factor when divide(f, candidate) returns the
    cofactor rather than None. A factor's pieces leave the pool, and the
    search stops at half of the pool, so every factor returned, the rest
    of f included, is irreducible."""
    pool = list(range(len(pieces)))
    found = []
    size = 1
    while 2 * size <= len(pool):
        for subset in itertools.combinations(pool, size):
            candidate = combine([pieces[i] for i in subset])
            cofactor = divide(f, candidate)
            if cofactor is not None:
                found.append(candidate)
                f = cofactor
                pool = [i for i in pool if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _symmetric(a: list[int], m: int) -> list[int]:
    return _trim([c - m if c > m // 2 else c for c in a])


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree integer polynomial, lc > 0."""
    n = _deg(f)
    if n <= 1:
        return [f]
    lc = f[-1]
    # monicize: fm(x) = lc^(n-1) * f(x / lc)
    fm = [f[i] * lc ** (n - 1 - i) for i in range(n)] + [1]
    p = None
    for q in _PRIMES:
        fbar = _p_norm(fm, q)
        if _deg(fbar) != n:
            continue
        dbar = _trim([(fbar[i] * i) % q for i in range(1, len(fbar))])
        if _deg(_p_gcd(fbar, dbar, q)) == 0:
            p = q
            break
    if p is None:
        raise FactorScopeError("no usable prime for modular factorization")
    modular = _berlekamp(_p_norm(fm, p), p)
    if len(modular) == 1:
        return [f]
    bound = (n + 1) * (2 ** n) * max(abs(c) for c in fm)
    ladder = [p]
    while ladder[-1] < 2 * bound + 1:
        ladder.append(ladder[-1] ** 2)
    target = ladder[-1]
    ops = (_p_mul, _p_add, _p_sub, _p_divmod, [1], _p_ext_euclid)
    lifted = _hensel_multi(_p_norm(fm, target), modular, ops, ladder)

    def divide(g: list[int], candidate: list[int]) -> list[int] | None:
        q, r = _int_divmod_monic(g, candidate)
        return None if r else q

    def combine(subset: list[list[int]]) -> list[int]:
        return _symmetric(reduce(lambda a, b: _p_mul(a, b, target), subset), target)

    # undo monicization: factor g of fm maps to primitive(g(lc * x))
    return [
        _int_primitive([g[i] * lc ** i for i in range(len(g))])
        for g in _recombine(fm, lifted, combine, divide)
    ]


# -- Polynomial-level dispatch ------------------------------------------------


def _to_dense(f: Polynomial, name: str) -> list[Fraction]:
    i = f.ring.index(name)
    out = [Fraction(0)] * (f.degree_in(name) + 1)
    for e, c in f.terms.items():
        out[e[i]] += c
    return _trim(out)


def _from_dense(coeffs: list, ring: PolynomialRing, name: str) -> Polynomial:
    i = ring.index(name)
    terms = {}
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if c:
            e = [0] * ring.nvars
            e[i] = k
            terms[tuple(e)] = c
    return Polynomial(ring, terms)


def _factor_univariate(f: Polynomial, name: str) -> set[Polynomial]:
    """Monic irreducible factors of a squarefree f in one variable."""
    prim = _int_primitive(_to_dense(f, name))
    return {_from_dense(irr, f.ring, name).monic() for irr in _zassenhaus(prim)}


def coefficients_in(f: Polynomial, name: str) -> list[Polynomial]:
    """Coefficients of f as a polynomial in name (low to high)."""
    ring = f.ring
    i = ring.index(name)
    buckets: list[dict] = [dict() for _ in range(f.degree_in(name) + 1)]
    for e, c in f.terms.items():
        stripped = list(e)
        k = stripped[i]
        stripped[i] = 0
        buckets[k][tuple(stripped)] = c
    return [Polynomial(ring, b) for b in buckets]


def _main_variable(names: Iterable[str], *polys: Polynomial) -> str:
    """The name of lowest degree in polys, the first in ring order among
    equals. Pseudo-remainders in a variable of high degree blow up: a
    quartic in three variables did not factor in 40 s, or factored in
    0.05 s, depending on which variable came first in its ring."""
    ring = polys[0].ring
    return min(names, key=lambda name: (max(p.degree_in(name) for p in polys), ring.index(name)))


def _poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Multivariate gcd by primitive pseudo-remainder sequences."""
    ring = f.ring
    if f.is_zero():
        return g.monic() if not g.is_zero() else ring.zero()
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return ring.one()
    name = _main_variable(f.variables_used() | g.variables_used(), f, g)
    if f.degree_in(name) == 0 or g.degree_in(name) == 0:
        # one input is free of the chosen variable; gcd divides its coefficients
        free, other = (f, g) if f.degree_in(name) == 0 else (g, f)
        cont = reduce(_poly_gcd, coefficients_in(other, name))
        return _poly_gcd(free, cont)
    cf = reduce(_poly_gcd, coefficients_in(f, name))
    cg = reduce(_poly_gcd, coefficients_in(g, name))
    c = _poly_gcd(cf, cg)
    a = f.exact_div(cf)
    b = g.exact_div(cg)
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b, name)
        if r.is_zero():
            break
        if r.degree_in(name) == 0:
            return c.monic()
        # in one variable the content is a constant; monic keeps the
        # remainders' coefficients from growing at every step
        cont = reduce(_poly_gcd, coefficients_in(r, name))
        a, b = b, r.exact_div(cont).monic()
    pp = b.exact_div(reduce(_poly_gcd, coefficients_in(b, name)))
    return (c * pp).monic()


def _pseudo_rem(f: Polynomial, g: Polynomial, name: str) -> Polynomial:
    """lc(g)^k * f mod g in name, k the number of steps; only its primitive part is used."""
    dg = g.degree_in(name)
    lc_g = coefficients_in(g, name)[dg]
    r = f
    x = f.ring.var(name)
    while not r.is_zero() and r.degree_in(name) >= dg:
        dr = r.degree_in(name)
        lead = coefficients_in(r, name)[dr]
        r = r * lc_g - lead * x ** (dr - dg) * g
    return r


# -- bivariate core -----------------------------------------------------------


def _trunc(f: Polynomial, uname: str, prec: int) -> Polynomial:
    i = f.ring.index(uname)
    return Polynomial(f.ring, {e: c for e, c in f.terms.items() if e[i] < prec})


def _xu_divmod_monic(
    f: Polynomial, g: Polynomial, xname: str, uname: str, prec: int
) -> tuple[Polynomial, Polynomial]:
    ring = f.ring
    dg = g.degree_in(xname)
    x = ring.var(xname)
    q = ring.zero()
    r = _trunc(f, uname, prec)
    while not r.is_zero() and r.degree_in(xname) >= dg:
        dr = r.degree_in(xname)
        lead = coefficients_in(r, xname)[dr]
        shift = lead * x ** (dr - dg)
        q = q + shift
        r = _trunc(r - shift * g, uname, prec)
    return q, r


def _xu_bezout(
    g: Polynomial, h: Polynomial, xname: str, uname: str
) -> tuple[Polynomial, Polynomial]:
    """s, t with s*g + t*h = 1, deg s < deg h and deg t < deg g, for coprime
    g and h that are monic in xname and free of uname: extended Euclid on
    monic remainders, which tracks s only (s*g = r mod h throughout)."""
    r0, r1 = g, h
    s0, s1 = g.ring.one(), g.ring.zero()
    while not r1.is_constant():
        q, r = _xu_divmod_monic(r0, r1, xname, uname, 1)
        inverse = Fraction(1, r.leading_coefficient())
        r0, r1 = r1, r * inverse
        s0, s1 = s1, (s0 - q * s1) * inverse
    s = _xu_divmod_monic(s1, h, xname, uname, 1)[1]
    return s, (1 - s * g).exact_div(h)


def _bivariate_factors(g: Polynomial, xname: str, uname: str) -> list[Polynomial]:
    """The irreducible factors of g, from one lift along a line u = c.

    Requires g primitive and squarefree with respect to xname.
    """
    ring = g.ring
    n = g.degree_in(xname)
    c_found = None
    for magnitude in range(0, 51):
        for c in ({0} if magnitude == 0 else {magnitude, -magnitude}):
            fiber = g.substitute({uname: c})
            if fiber.degree_in(xname) == n and _poly_gcd(
                fiber, fiber.differentiate(xname)
            ).is_constant():
                c_found = c
                break
        if c_found is not None:
            break
    if c_found is None:
        raise FactorScopeError("no good evaluation line for lifting")
    u = ring.var(uname)
    x = ring.var(xname)
    gt = g.substitute({uname: u + c_found}, ring)
    L = coefficients_in(gt, xname)[n]
    # monicize: Fhat = L^(n-1) * gt(x / L)
    coeffs = coefficients_in(gt, xname)
    Fhat = ring.zero()
    for i in range(n):
        Fhat = Fhat + coeffs[i] * L ** (n - 1 - i) * x ** i
    Fhat = Fhat + x ** n
    K = Fhat.degree_in(uname) + 1
    f0 = _int_primitive(_to_dense(Fhat.substitute({uname: 0}), xname))
    pieces = _zassenhaus(f0)
    if len(pieces) == 1:
        return [g]
    base = [_from_dense(piece, ring, xname).monic() for piece in pieces]
    base.sort(key=lambda p: (p.degree_in(xname), str(p)))
    ladder = [1]
    while ladder[-1] < K:
        ladder.append(min(2 * ladder[-1], K))
    ops = (
        lambda a, b, k: _trunc(a * b, uname, k),
        lambda a, b, k: _trunc(a + b, uname, k),
        lambda a, b, k: _trunc(a - b, uname, k),
        lambda a, b, k: _xu_divmod_monic(a, b, xname, uname, k),
        ring.one(),
        lambda a, b, k: _xu_bezout(a, b, xname, uname),
    )
    lifted = _hensel_multi(Fhat, base, ops, ladder)

    def combine(subset: list[Polynomial]) -> Polynomial:
        # each factor of Fhat is monic in x, of degree below K in u
        return reduce(lambda a, b: _trunc(a * b, uname, K), subset)

    out = []
    for h in _recombine(Fhat, lifted, combine, Polynomial._exact_quotient):
        # map back: x -> L*x, strip content in u, undo the translation
        raw = h.substitute({xname: L * x}, ring)
        cont = reduce(_poly_gcd, coefficients_in(raw, xname))
        out.append(raw.exact_div(cont).substitute({uname: u - c_found}, ring))
    return out


# -- irreducible-candidate recursion ------------------------------------------


def _kronecker_unpack(h: Polynomial, bname: str, cname: str, D: int) -> Polynomial:
    ring = h.ring
    ib, ic = ring.index(bname), ring.index(cname)
    terms = {}
    for e, c in h.terms.items():
        new = list(e)
        E = e[ib]
        new[ib] = E % D
        new[ic] = E // D
        key = tuple(new)
        old = terms.get(key)
        terms[key] = c if old is None else old + c
    return Polynomial(ring, terms)


def _candidates(g: Polynomial) -> set[Polynomial]:
    """Monic irreducible factors of g (set; multiplicities recovered later)."""
    ring = g.ring
    out: set[Polynomial] = set()
    if g.is_constant():
        return out
    # monomial content
    for name in sorted(g.variables_used(), key=ring.index):
        i = ring.index(name)
        m = min(e[i] for e in g.terms)
        if m > 0:
            out.add(ring.var(name))
            g = g.exact_div(ring.var(name) ** m)
    if g.is_constant():
        return out
    used = sorted(g.variables_used(), key=ring.index)
    xname = _main_variable(used, g)
    others = [name for name in used if name != xname]
    coeffs = coefficients_in(g, xname)
    content = reduce(_poly_gcd, coeffs)
    if not content.is_constant():
        return out | _candidates(content) | _candidates(g.exact_div(content))
    if len(coeffs) == 2:
        # primitive and linear in xname: a proper factor would be free of
        # xname and divide both coefficients
        out.add(g.monic())
        return out
    sq = _poly_gcd(g, g.differentiate(xname))
    if not sq.is_constant():
        return out | _candidates(sq) | _candidates(g.exact_div(sq))
    if len(used) == 1:
        return out | _factor_univariate(g, xname)
    if len(used) == 2:
        return out | {h.monic() for h in _bivariate_factors(g, xname, others[0])}
    # three variables: pack the last into the middle one, factor, unpack subsets
    bname, cname = others
    D = g.total_degree() + 1
    image = g.substitute({cname: ring.var(bname) ** D}, ring)
    _, image_factors = _factor_in_ring(image)
    expanded = [fac for fac, mult in image_factors for _ in range(mult)]
    if len(expanded) > 12:
        raise FactorScopeError("image factorization too wide to recombine")

    def unpack(subset: list[Polynomial]) -> Polynomial:
        return _kronecker_unpack(reduce(operator.mul, subset), bname, cname, D).monic()

    found = _recombine(g, expanded, unpack, Polynomial._exact_quotient)
    return out | {h.monic() for h in found}


def _factor_in_ring(f: Polynomial) -> tuple[Scalar, list[tuple[Polynomial, int]]]:
    """Factorization within f's own ring, unchecked and not remembered."""
    candidates = sorted(_candidates(f), key=lambda p: (p.total_degree(), str(p)))
    work = f
    out: list[tuple[Polynomial, int]] = []
    for cand in candidates:
        work, mult = work.strip_powers(cand)
        if mult:
            out.append((cand, mult))
    if not work.is_constant():
        raise AssertionError(f"factorization incomplete for {f}")
    return work.constant_value(), out


def factor(f: Polynomial) -> tuple[Scalar, list[tuple[Polynomial, int]]]:
    """f = constant * product of monic irreducible powers.

    FactorScopeError for more than MAX_VARS variables, and when the method
    gives up: no usable prime, no good evaluation line, or a packed image
    with too many factors to recombine. The degree is not bounded. Inside
    groebner_memo() each polynomial is factored once.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.is_constant():
        return f.constant_value(), []
    nvars = len(f.variables_used())
    if nvars > MAX_VARS:
        raise FactorScopeError(f"{nvars} variables exceed the supported {MAX_VARS}")
    const, factors = remembered(("factor", f), _checked_factorization, f)
    return const, list(factors)


def _checked_factorization(f: Polynomial) -> tuple[Scalar, tuple[tuple[Polynomial, int], ...]]:
    const, factors = _factor_in_ring(f)
    check = f.ring.const(const)
    for g, m in factors:
        check = check * g ** m
    if check != f:
        raise AssertionError("factor product check failed")
    return const, tuple(factors)


def is_irreducible(f: Polynomial) -> bool:
    if f.is_zero() or f.is_constant():
        return False
    _, factors = factor(f)
    return len(factors) == 1 and factors[0][1] == 1
