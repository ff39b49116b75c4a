"""Polynomial factorization over the rationals in small degree.

Univariate factorization is modular: the input is reduced to its squarefree
part f / gcd(f, f') once, factored by Berlekamp over a small prime p, Hensel
lifted to a Mignotte-sized modulus p^k, then recombined by subsets
(Zassenhaus). One dense kernel (_p_mul, _p_add, _p_sub, _p_divmod) serves
the Berlekamp prime and the Hensel modulus p^k alike: every divisor mod
p^k is monic, so no inverse other than 1 is needed there. Multiplicities
are recovered by trial division. Bivariate polynomials are factored by
lifting a univariate factorization along a generic line y = c. Trivariate
polynomials are packed into bivariate ones by exponent encoding; candidate
factors are unpacked and verified by exact division, which keeps the method
sound and complete.

Public entry points enforce the supported scope (univariate degree <= 8,
multivariate total degree <= 4 in <= 3 variables) and raise FactorScopeError
beyond it. Internal recursions relax the caps because encodings inflate
degrees. Every factorization is checked by multiplying back.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd as int_gcd

from .errors import ExactDivisionError, FactorScopeError
from .polyring import Polynomial, PolynomialRing

UNIVARIATE_CAP = 8
MULTIVARIATE_CAP = 4
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


def _q_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _q_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _q_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lc = b[-1]
    while len(r) >= len(b) and r:
        c = r[-1] / lc
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        _trim(r)
    return _trim(q), r


def _q_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _q_divmod(a, b)[1]
    if a:
        lc = a[-1]
        a = [c / lc for c in a]
    return a


def _q_deriv(a: list[Fraction]) -> list[Fraction]:
    return _trim([a[i] * i for i in range(1, len(a))])


def _q_ext_euclid(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """s, t with s*a + t*b = 1, deg s < deg b and deg t < deg a (a, b coprime)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _q_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _q_sub(s0, _q_mul(q, s1))
        t0, t1 = t1, _q_sub(t0, _q_mul(q, t1))
    if _deg(r0) != 0:
        raise ValueError("inputs are not coprime")
    c = r0[0]
    s = [x / c for x in s0]
    t = [x / c for x in t0]
    # normalize degrees: s mod b, then t = (1 - s*a) / b exactly
    _, s = _q_divmod(s, b)
    num = _q_sub([Fraction(1)], _q_mul(s, a))
    t, rem = _q_divmod(num, b)
    assert not rem
    return s, t


def _int_primitive(coeffs: list[Fraction]) -> tuple[Fraction, list[int]]:
    """content * primitive integer polynomial with positive leading coefficient."""
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
    ints = [sign * c for c in ints]
    return Fraction(sign * g, denom), _trim(ints)


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


# -- Hensel lifting over Z/p^(2^j) --------------------------------------------


def _hensel_pair(
    f: list[int], g: list[int], h: list[int], s: list[int], t: list[int], p: int, target: int
) -> tuple[list[int], list[int]]:
    """Lift f = g*h from mod p to mod target (target = p^(2^j)); g, h, f monic."""
    m = p
    while m < target:
        m = m * m
        e = _p_sub(f, _p_mul(g, h, m), m)
        q, r = _p_divmod(_p_mul(s, e, m), h, m)
        g = _p_add(g, _p_add(_p_mul(t, e, m), _p_mul(q, g, m), m), m)
        h = _p_add(h, r, m)
        b = _p_sub(_p_add(_p_mul(s, g, m), _p_mul(t, h, m), m), [1], m)
        c, d = _p_divmod(_p_mul(s, b, m), h, m)
        s = _p_sub(s, d, m)
        t = _p_sub(t, _p_add(_p_mul(t, b, m), _p_mul(c, g, m), m), m)
    return g, h


def _hensel_multi(f: list[int], facs: list[list[int]], p: int, target: int) -> list[list[int]]:
    if len(facs) == 1:
        return [[c % target for c in f]]
    k = len(facs) // 2
    g0 = [1]
    for piece in facs[:k]:
        g0 = _p_mul(g0, piece, p)
    h0 = [1]
    for piece in facs[k:]:
        h0 = _p_mul(h0, piece, p)
    s, t = _p_ext_euclid(g0, h0, p)
    g, h = _hensel_pair(f, g0, h0, s, t, p, target)
    return _hensel_multi(g, facs[:k], p, target) + _hensel_multi(h, facs[k:], p, target)


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
    target = p
    while target < 2 * bound + 1:
        target = target * target
    lifted = _hensel_multi([c % target for c in fm], modular, p, target)
    pool = list(range(len(modular)))
    found: list[list[int]] = []
    fcur = list(fm)
    size = 1
    while 2 * size <= len(pool):
        hit = False
        for subset in itertools.combinations(pool, size):
            prod = [1]
            for i in subset:
                prod = _p_mul(prod, lifted[i], target)
            cand = _symmetric(prod, target)
            q, r = _int_divmod_monic(fcur, cand)
            if not r:
                found.append(cand)
                fcur = q
                pool = [i for i in pool if i not in subset]
                hit = True
                break
        if not hit:
            size += 1
    if _deg(fcur) > 0:
        found.append(fcur)
    # undo monicization: factor g of fm maps to primitive(g(lc * x))
    out = []
    for g in found:
        scaled = [g[i] * lc ** i for i in range(len(g))]
        _, prim = _int_primitive([Fraction(c) for c in scaled])
        out.append(prim)
    return out


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
    """Monic irreducible factors of f; multiplicities are left to trial division."""
    dense = _to_dense(f, name)
    _, sqfree = _int_primitive(_q_divmod(dense, _q_gcd(dense, _q_deriv(dense)))[0])
    return {_from_dense(irr, f.ring, name).monic() for irr in _zassenhaus(sqfree)}


def _x_coeffs(f: Polynomial, name: str) -> list[Polynomial]:
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


def _poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Multivariate gcd by primitive pseudo-remainder sequences."""
    ring = f.ring
    if f.is_zero():
        return g.monic() if not g.is_zero() else ring.zero()
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return ring.one()
    shared = sorted(f.variables_used() | g.variables_used(), key=ring.index)
    name = shared[0]
    if f.degree_in(name) == 0 or g.degree_in(name) == 0:
        # one input is free of the chosen variable; gcd divides its coefficients
        free, other = (f, g) if f.degree_in(name) == 0 else (g, f)
        cont = reduce(_poly_gcd, _x_coeffs(other, name))
        return _poly_gcd(free, cont)
    cf = reduce(_poly_gcd, _x_coeffs(f, name))
    cg = reduce(_poly_gcd, _x_coeffs(g, name))
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
        cont = reduce(_poly_gcd, _x_coeffs(r, name))
        a, b = b, r.exact_div(cont)
    pp = b.exact_div(reduce(_poly_gcd, _x_coeffs(b, name)))
    return (c * pp).monic()


def _pseudo_rem(f: Polynomial, g: Polynomial, name: str) -> Polynomial:
    """lc(g)^k * f mod g in name, k the number of steps; only its primitive part is used."""
    dg = g.degree_in(name)
    lc_g = _x_coeffs(g, name)[dg]
    r = f
    x = f.ring.var(name)
    while not r.is_zero() and r.degree_in(name) >= dg:
        dr = r.degree_in(name)
        lead = _x_coeffs(r, name)[dr]
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
        lead = _x_coeffs(r, xname)[dr]
        shift = lead * x ** (dr - dg)
        q = q + shift
        r = _trunc(r - shift * g, uname, prec)
    return q, r


def _xu_hensel_pair(
    F: Polynomial,
    g: Polynomial,
    h: Polynomial,
    s: Polynomial,
    t: Polynomial,
    xname: str,
    uname: str,
    K: int,
) -> tuple[Polynomial, Polynomial]:
    ring = F.ring
    one = ring.one()
    prec = 1
    while prec < K:
        prec = min(2 * prec, K)
        tr = lambda p: _trunc(p, uname, prec)
        e = tr(F - g * h)
        q, r = _xu_divmod_monic(tr(s * e), h, xname, uname, prec)
        g = tr(g + t * e + q * g)
        h = tr(h + r)
        b = tr(s * g + t * h - one)
        c, d = _xu_divmod_monic(tr(s * b), h, xname, uname, prec)
        s = tr(s - d)
        t = tr(t - t * b - c * g)
    return g, h


def _xu_hensel_multi(
    F: Polynomial, facs: list[Polynomial], xname: str, uname: str, K: int
) -> list[Polynomial]:
    if len(facs) == 1:
        return [_trunc(F, uname, K)]
    ring = F.ring
    k = len(facs) // 2
    g0 = ring.one()
    for piece in facs[:k]:
        g0 = g0 * piece
    h0 = ring.one()
    for piece in facs[k:]:
        h0 = h0 * piece
    s_dense, t_dense = _q_ext_euclid(_to_dense(g0, xname), _to_dense(h0, xname))
    s = _from_dense(s_dense, ring, xname)
    t = _from_dense(t_dense, ring, xname)
    g, h = _xu_hensel_pair(F, g0, h0, s, t, xname, uname, K)
    return _xu_hensel_multi(g, facs[:k], xname, uname, K) + _xu_hensel_multi(
        h, facs[k:], xname, uname, K
    )


def _bivariate_divisor(g: Polynomial, xname: str, uname: str) -> Polynomial | None:
    """A proper factor of g, or None when g is irreducible.

    Requires g primitive and squarefree with respect to xname.
    """
    ring = g.ring
    n = g.degree_in(xname)
    lc_poly = _x_coeffs(g, xname)[n]
    c_found = None
    for magnitude in range(0, 51):
        for c in ({0} if magnitude == 0 else {magnitude, -magnitude}):
            if lc_poly.evaluate({uname: c, xname: 0}) == 0:
                continue
            fiber = [Fraction(0)] * (n + 1)
            for e, coeff in g.terms.items():
                ix, iu = ring.index(xname), ring.index(uname)
                fiber[e[ix]] += coeff * Fraction(c) ** e[iu]
            fiber = _trim(fiber)
            if _deg(fiber) == n and _deg(_q_gcd(fiber, _q_deriv(fiber))) == 0:
                c_found = c
                break
        if c_found is not None:
            break
    if c_found is None:
        raise FactorScopeError("no good evaluation line for lifting")
    u = ring.var(uname)
    x = ring.var(xname)
    gt = g.substitute({uname: u + c_found}, ring)
    L = _x_coeffs(gt, xname)[n]
    # monicize: Fhat = L^(n-1) * gt(x / L)
    coeffs = _x_coeffs(gt, xname)
    Fhat = ring.zero()
    for i in range(n):
        Fhat = Fhat + coeffs[i] * L ** (n - 1 - i) * x ** i
    Fhat = Fhat + x ** n
    K = Fhat.degree_in(uname) + 1
    f0 = [coeff.evaluate({uname: 0, xname: 0}) for coeff in _x_coeffs(Fhat, xname)]
    _, f0_int = _int_primitive(f0)
    pieces = _zassenhaus(f0_int)
    if len(pieces) == 1:
        return None
    base = []
    for piece in pieces:
        dense = [Fraction(cc, piece[-1]) for cc in piece]
        base.append(_from_dense(dense, ring, xname))
    base.sort(key=lambda p: (p.degree_in(xname), str(p)))
    lifted = _xu_hensel_multi(Fhat, base, xname, uname, K)
    pool = list(range(len(lifted)))
    for size in range(1, len(pool)):
        for subset in itertools.combinations(pool, size):
            cand = ring.one()
            for i in subset:
                cand = _trunc(cand * lifted[i], uname, K)
            try:
                Fhat.exact_div(cand)
            except ExactDivisionError:
                continue
            # map back: x -> L*x, strip content in u, undo the translation
            raw = cand.substitute({xname: L * x}, ring)
            cont = reduce(_poly_gcd, _x_coeffs(raw, xname))
            h = raw.exact_div(cont)
            h = h.substitute({uname: u - c_found}, ring)
            if not h.is_constant() and h.divides(g):
                quotient = g.exact_div(h)
                if not quotient.is_constant():
                    return h
    return None


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
    if len(used) == 1:
        return out | _factor_univariate(g, used[0])
    xname = used[0]
    coeffs = _x_coeffs(g, xname)
    content = reduce(_poly_gcd, coeffs)
    if not content.is_constant():
        return out | _candidates(content) | _candidates(g.exact_div(content))
    sq = _poly_gcd(g, g.differentiate(xname))
    if not sq.is_constant():
        return out | _candidates(sq) | _candidates(g.exact_div(sq))
    if len(used) == 2:
        h = _bivariate_divisor(g, used[0], used[1])
        if h is None:
            out.add(g.monic())
            return out
        return out | _candidates(h) | _candidates(g.exact_div(h))
    # three variables: pack the last into the middle one, factor, unpack subsets
    bname, cname = used[1], used[2]
    D = g.total_degree() + 1
    image = g.substitute({cname: ring.var(bname) ** D}, ring)
    _, image_factors = _factor_in_ring(image)
    expanded: list[Polynomial] = []
    for fac, mult in image_factors:
        expanded.extend([fac] * mult)
    if len(expanded) > 12:
        raise FactorScopeError("image factorization too wide to recombine")
    order = range(1, len(expanded))
    for size in order:
        for subset in itertools.combinations(range(len(expanded)), size):
            cand = ring.one()
            for i in subset:
                cand = cand * expanded[i]
            h = _kronecker_unpack(cand, bname, cname, D).monic()
            if h.is_constant() or not h.divides(g):
                continue
            quotient = g.exact_div(h)
            if quotient.is_constant():
                continue
            return out | _candidates(h) | _candidates(quotient)
    out.add(g.monic())
    return out


def _factor_in_ring(f: Polynomial) -> tuple[Fraction, list[tuple[Polynomial, int]]]:
    """Factorization within f's own ring, no scope gating."""
    candidates = sorted(_candidates(f), key=lambda p: (p.total_degree(), str(p)))
    work = f
    out: list[tuple[Polynomial, int]] = []
    for cand in candidates:
        mult = 0
        while True:
            try:
                work = work.exact_div(cand)
            except ExactDivisionError:
                break
            mult += 1
        if mult:
            out.append((cand, mult))
    assert work.is_constant(), f"factorization incomplete for {f}"
    return work.constant_value(), out


def factor(f: Polynomial, relax_scope: bool = False) -> tuple[Fraction, list[tuple[Polynomial, int]]]:
    """f = constant * product of monic irreducible powers.

    Scope: at most 3 variables; univariate degree <= 8; multivariate total
    degree <= 4. FactorScopeError beyond that. relax_scope widens the degree
    caps for internal callers whose inputs come from encodings.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.is_constant():
        return f.constant_value(), []
    used = sorted(f.variables_used(), key=f.ring.index)
    if len(used) > MAX_VARS:
        raise FactorScopeError(f"{len(used)} variables exceed the supported {MAX_VARS}")
    if not relax_scope:
        if len(used) == 1:
            if f.degree_in(used[0]) > UNIVARIATE_CAP:
                raise FactorScopeError(
                    f"univariate degree {f.degree_in(used[0])} exceeds {UNIVARIATE_CAP}"
                )
        elif f.total_degree() > MULTIVARIATE_CAP:
            raise FactorScopeError(
                f"total degree {f.total_degree()} exceeds {MULTIVARIATE_CAP} in several variables"
            )
    const, factors = _factor_in_ring(f)
    check = f.ring.const(const)
    for g, m in factors:
        check = check * g ** m
    assert check == f, "factor product check failed"
    return const, factors


def is_irreducible(f: Polynomial) -> bool:
    if f.is_zero() or f.is_constant():
        return False
    _, factors = factor(f)
    return len(factors) == 1 and factors[0][1] == 1
