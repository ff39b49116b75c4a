"""Geometric queries on affine and projective varieties.

Zero-dimensional ideals are decomposed through a separating linear form,
which yields prime components, multiplicities, residue degrees, and
rational coordinates in one pass. Everything is read from the cached
reduced basis by linear algebra on the quotient ring Q[x]/I, in the basis
of its standard monomials (the FGLM idea: Faugere, Gianni, Lazard, Mora,
J. Symb. Comp. 1993). A form acts on the quotient by a matrix whose columns
are normal forms. The eliminant of a form, the generator of
(I + (u - form)) meet Q[u], is the minimal polynomial of that action, found
by Gaussian elimination on the images of 1, form, form^2, ... The radical
adds the squarefree part of each variable's eliminant that is not
squarefree; when every one is, the ideal is its own radical (Seidenberg's
lemma) and no new basis is computed. A form is separating
when its eliminant on the radical has the radical's dimension as degree;
the irreducible factors of that eliminant are the points, and each point's
multiplicity is the exponent of its factor in the characteristic
polynomial of the form on Q[x]/I (Hessenberg reduction, O(D^3) for a
quotient of dimension D). Smoothness is decided
by the Jacobian criterion on a complete-intersection presentation. The
quadratic form of a hypersurface along a coordinate-like center is its
Hessian in the center variables, evaluated on the center; its determinant
cuts out the locus where the normal quadric degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .errors import (
    CompleteIntersectionError,
    EmptyVarietyError,
    ImproperIntersectionError,
    NotZeroDimensionalError,
)
from .factor import factor
from .ideals import Ideal, fresh_name, normal_forms
from .polyring import Polynomial, PolynomialRing, Scalar, _quotient, exp_add


@dataclass(frozen=True)
class PrimaryComponent:
    """One point (possibly irrational) of a zero-dimensional scheme."""

    prime: Ideal
    multiplicity: int
    residue_degree: int
    point: dict[str, Scalar] | None  # rational coordinates when degree 1

    @property
    def local_length(self) -> int:
        return self.multiplicity * self.residue_degree


# -- linear algebra on Q[x]/I --------------------------------------------------

# A vector of Q[x]/I is a dict from the index of a standard monomial to a
# nonzero coefficient; a matrix is the list of its columns.


def _multiplication_matrix(ideal: Ideal, form: Polynomial, monomials: list) -> list[dict]:
    """Columns of multiplication by form on ring/ideal, in the basis of the
    standard monomials: column j is the normal form of form * monomials[j]."""
    ring = ideal.ring
    products = [
        Polynomial._new(ring, {exp_add(e, m): c for e, c in form.terms.items()})
        for m in monomials
    ]
    index = {m: j for j, m in enumerate(monomials)}
    return [
        {index[e]: c for e, c in r.terms.items()}
        for r in normal_forms(products, ideal.groebner())
    ]


def _apply(columns: list[dict], vector: dict) -> dict:
    """The matrix of columns times vector."""
    out: dict = {}
    for j, c in vector.items():
        for i, d in columns[j].items():
            s = out.get(i, 0) + c * d
            if s:
                out[i] = s
            else:
                del out[i]
    return out


def _minimal_polynomial(columns: list[dict], start: dict) -> list[Scalar]:
    """Coefficients, constant first, of the monic polynomial p of least
    degree with p(M) start = 0, for M the matrix of columns: the images
    start, M start, M^2 start, ... are reduced against the earlier ones by
    Gaussian elimination until the first that reduces to zero, whose record
    of combinations is p."""
    rows: list[tuple[int, dict, dict]] = []  # pivot, vector scaled to 1 there, combination
    power = start
    k = 0
    while True:
        vector, combination = dict(power), {k: 1}
        for pivot, row, comb in rows:
            c = vector.get(pivot)
            if c is None:
                continue
            for target, part in ((vector, row), (combination, comb)):
                for i, d in part.items():
                    s = target.get(i, 0) - c * d
                    if s:
                        target[i] = s
                    else:
                        del target[i]
        if not vector:
            return [combination.get(i, 0) for i in range(k + 1)]
        pivot = min(vector)
        lead = vector[pivot]
        rows.append((
            pivot,
            {i: _quotient(d, lead) for i, d in vector.items()},
            {i: _quotient(d, lead) for i, d in combination.items()},
        ))
        power = _apply(columns, power)
        k += 1


def _characteristic_polynomial(columns: list[dict]) -> list[Scalar]:
    """Coefficients, constant first, of det(u - M): M is brought to upper
    Hessenberg form by similarity transforms, and the determinant expanded
    along its subdiagonal (Cohen, A Course in Computational Algebraic Number
    Theory, algorithm 2.2.9)."""
    n = len(columns)
    h = [[columns[j].get(i, 0) for j in range(n)] for i in range(n)]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        t = h[m][m - 1]
        for i in range(m + 1, n):
            if not h[i][m - 1]:
                continue
            u = _quotient(h[i][m - 1], t)
            row_i, row_m = h[i], h[m]
            for j in range(m - 1, n):
                if row_m[j]:
                    row_i[j] -= u * row_m[j]
            for row in h:
                if row[i]:
                    row[m] += u * row[i]
    # p[m] = det(u - H) of the leading m x m block
    p: list[list[Scalar]] = [[1]]
    for m in range(1, n + 1):
        prev = p[m - 1]
        cur = [0] + prev  # u * p[m-1]
        for i, c in enumerate(prev):
            cur[i] -= h[m - 1][m - 1] * c
        t = 1
        for i in range(1, m):
            t *= h[m - i][m - i - 1]
            if not t:
                break
            scale = t * h[m - i - 1][m - 1]
            for j, c in enumerate(p[m - i - 1]):
                cur[j] -= scale * c
        p.append(cur)
    return p[n]


def _in_u(ring: PolynomialRing, coefficients: list[Scalar]) -> Polynomial:
    return Polynomial(ring, {(i,): c for i, c in enumerate(coefficients)})


def _eliminant(ideal: Ideal, form: Polynomial) -> Polynomial:
    """The monic generator of (ideal + (u - form)) meet Q[u], in a ring with
    the one variable _u (or the first fresh name after it): the minimal
    polynomial of multiplication by form on Q[x]/ideal, read from the
    normal forms of form times each standard monomial. The ideal must be
    zero-dimensional."""
    monomials = ideal.standard_monomials()
    u_ring = PolynomialRing((fresh_name(ideal.ring.names, "_u"),))
    if not monomials:
        return u_ring.one()
    columns = _multiplication_matrix(ideal, form, monomials)
    return _in_u(u_ring, _minimal_polynomial(columns, {0: 1}))


def radical_zero_dim(ideal: Ideal) -> Ideal:
    """Radical of a zero-dimensional ideal: the squarefree part of each
    variable's eliminant that is not squarefree is adjoined, and the ideal
    itself returned when there is none (Seidenberg's lemma)."""
    ring = ideal.ring
    ideal.vector_space_dimension()  # raises when not zero-dimensional
    extra = []
    for name in ring.names:
        h = _eliminant(ideal, ring.var(name))
        _, factors = factor(h)
        if all(m == 1 for _g, m in factors):
            continue  # h lies in the ideal already
        sqfree = prod((g for g, _m in factors), start=h.ring.one())
        extra.append(sqfree.substitute({h.ring.names[0]: ring.var(name)}, ring))
    return ideal.plus(extra) if extra else ideal


def _multiplicities(
    ideal: Ideal, form: Polynomial, pieces: list[Polynomial]
) -> list[int]:
    """The exponent of each piece in the characteristic polynomial of
    multiplication by form on Q[x]/ideal."""
    monomials = ideal.standard_monomials()
    charpoly = _in_u(
        pieces[0].ring,
        _characteristic_polynomial(_multiplication_matrix(ideal, form, monomials)),
    )
    out = []
    for piece in pieces:
        charpoly, m = charpoly.strip_powers(piece)
        out.append(m)
    return out


def _component(prime: Ideal, multiplicity: int, degree: int) -> PrimaryComponent:
    """The component on a prime given by its reduced basis, with the
    coordinates of its point, the normal forms of the variables, when the
    residue degree is 1."""
    point = None
    if degree == 1:
        ring = prime.ring
        values = normal_forms(ring.gens(), prime.groebner())
        if not all(v.is_constant() for v in values):
            raise AssertionError("rational point coordinate is not constant")
        point = {name: v.constant_value() for name, v in zip(ring.names, values)}
    return PrimaryComponent(prime, multiplicity, degree, point)


def point_component(
    ring: PolynomialRing, point: dict[str, Scalar], multiplicity: int
) -> PrimaryComponent:
    """The component of a rational point of ring, coordinates by name in
    the ring's order, with its prime given by the reduced basis
    var - value, sorted as zero_dim_decompose sorts it."""
    key = ring.order.sort_key
    basis = sorted(
        (ring.var(n) - v for n, v in point.items()), key=lambda g: key(g.leading_monomial())
    )
    return PrimaryComponent(Ideal._of_basis(ring, tuple(basis)), multiplicity, 1, point)


def sort_components(components: list[PrimaryComponent]) -> list[PrimaryComponent]:
    """Components in the order zero_dim_decompose returns them."""
    return sorted(components, key=lambda c: (c.residue_degree, str(c.prime.groebner())))


def zero_dim_decompose(ideal: Ideal) -> list[PrimaryComponent]:
    """Primary components of a zero-dimensional ideal.

    The sum over components of multiplicity * residue_degree always equals
    the vector-space dimension of the quotient; this is checked on every
    call.
    """
    ring = ideal.ring
    total = ideal.vector_space_dimension()
    if total == 0:
        return []
    rad = radical_zero_dim(ideal)
    rad_dim = rad.vector_space_dimension()
    form = None
    eliminant = None
    for k in range(0, 64):
        cand = ring.zero()
        for i, name in enumerate(ring.names):
            cand = cand + ring.var(name) * Fraction(k) ** i
        h = _eliminant(rad, cand)
        if h.total_degree() == rad_dim:
            form, eliminant = cand, h
            break
    if form is None:
        raise AssertionError("no separating linear form found")
    uname = eliminant.ring.names[0]
    _, irreducibles = factor(eliminant)
    pieces = sorted((g for g, _m in irreducibles), key=lambda g: (g.total_degree(), str(g)))
    if rad_dim == total:
        multiplicities = [1] * len(pieces)  # the ideal is its own radical
    else:
        multiplicities = _multiplicities(ideal, form, pieces)
    if len(pieces) == 1:
        primes = [Ideal._of_basis(ring, rad.groebner())]  # rad is the one prime
    else:
        primes = [
            Ideal(ring, rad.plus([piece.substitute({uname: form}, ring)]).groebner())
            for piece in pieces
        ]
    components = [
        _component(prime, multiplicity, piece.total_degree())
        for prime, piece, multiplicity in zip(primes, pieces, multiplicities)
    ]
    if sum(c.local_length for c in components) != total:
        raise AssertionError("lengths do not add up")
    return sort_components(components)


def rational_points(ideal: Ideal) -> list[dict[str, Scalar]]:
    """Rational points of a zero-dimensional ideal, deterministic order."""
    pts = [c.point for c in zero_dim_decompose(ideal) if c.point is not None]
    names = ideal.ring.names
    pts.sort(key=lambda p: tuple(p[n] for n in names))
    return pts


# -- smoothness ----------------------------------------------------------------


def jacobian(gens: tuple[Polynomial, ...], ring: PolynomialRing) -> list[list[Polynomial]]:
    return [[g.differentiate(name) for name in ring.names] for g in gens]


def _determinant(rows: list[list[Polynomial]], ring: PolynomialRing) -> Polynomial:
    n = len(rows)
    if n == 0:
        return ring.one()
    if n == 1:
        return rows[0][0]
    total = ring.zero()
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _determinant(minor, ring)
        total = total + term if j % 2 == 0 else total - term
    return total


def minors(matrix: list[list[Polynomial]], size: int, ring: PolynomialRing) -> list[Polynomial]:
    out = []
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    for rows in combinations(range(nrows), size):
        for cols in combinations(range(ncols), size):
            sub = [[matrix[r][c] for c in cols] for r in rows]
            det = _determinant(sub, ring)
            if not det.is_zero():
                out.append(det)
    return out


def singular_locus(relations: Ideal) -> Ideal:
    """Ideal of the singular locus, by the Jacobian criterion.

    Needs a complete-intersection presentation: the number of generators
    must match the codimension (the reduced basis is tried as a fallback).
    The unit ideal means the variety is smooth.
    """
    ring = relations.ring
    if relations.is_zero():
        return Ideal(ring, (ring.one(),))
    if relations.is_trivial():
        return Ideal(ring, (ring.one(),))
    codim = relations.codimension()
    gens = relations.gens
    if len(gens) != codim:
        gens = relations.groebner()
    if len(gens) != codim:
        raise CompleteIntersectionError(
            f"{len(relations.gens)} generators for codimension {codim}"
        )
    if codim == 0:
        return Ideal(ring, (ring.one(),))
    jac = jacobian(gens, ring)
    mins = minors(jac, codim, ring)
    if any(m.is_constant() for m in mins):
        return Ideal(ring, (ring.one(),))  # a nonzero constant minor: smooth
    return relations.plus(mins)


# -- quadratic form along a center ---------------------------------------------


def center_quadratic_form(
    f: Polynomial, center_gens: tuple[Polynomial, ...]
) -> list[list[Polynomial]] | None:
    """Symmetric matrix of f's quadratic part along a coordinate-like center.

    Requires every center generator to be affine in a single distinct
    variable, scale * v + shift, which puts the center at v = -shift/scale,
    and f to lie in the square of the center ideal: f and its first
    derivatives in the center variables vanish there. Entry (k, l) is the
    Hessian entry d^2 f / dv_k dv_l there, divided by scale_k * scale_l:
    the coefficient of center_gens[k] * center_gens[l], doubled on the
    diagonal, which moves the vanishing locus of no minor. Returns None
    when the shape does not match.
    """
    ring = f.ring
    point: dict[str, Scalar] = {}
    scales = []
    for g in center_gens:
        used = g.variables_used()
        if len(used) != 1 or g.total_degree() != 1 or not used.isdisjoint(point):
            return None
        (name,) = used
        scale = g.differentiate(name).constant_value()
        point[name] = Fraction(-g.evaluate({name: 0}), scale)
        scales.append(scale)
    names = list(point)
    slopes = [f.differentiate(name) for name in names]
    if any(not p.substitute(point, ring).is_zero() for p in [f, *slopes]):
        return None  # f is not in the square of the center ideal
    return [
        [
            slope.differentiate(name).substitute(point, ring) * Fraction(1, sk * sl)
            for name, sl in zip(names, scales)
        ]
        for slope, sk in zip(slopes, scales)
    ]


def quadric_rank_drop(matrix: list[list[Polynomial]], ring: PolynomialRing) -> Polynomial:
    """Determinant of the symmetric matrix; vanishes where the quadric degenerates."""
    det = _determinant(matrix, ring)
    return det.monic() if not det.is_zero() else det


# -- projective points ---------------------------------------------------------


def dehomogenize(ideal: Ideal, coord: str) -> Ideal:
    """The ideal on the patch coord = 1, in the remaining coordinates."""
    patch_ring = PolynomialRing(tuple(n for n in ideal.ring.names if n != coord))
    return Ideal(patch_ring, (g.substitute({coord: 1}, patch_ring) for g in ideal.gens))


def projective_rational_points(
    gens: tuple[Polynomial, ...],
) -> list[tuple[Fraction, ...]]:
    """Rational points of a homogeneous zero-dimensional (projective) ideal.

    Points are normalized with first nonzero coordinate 1 and deduplicated
    across patches by ownership: the patch of the first nonzero coordinate
    owns the point. Raises ImproperIntersectionError when some patch slice
    is positive-dimensional.
    """
    if not gens:
        raise ValueError("no generators")
    whole = Ideal(gens[0].ring, gens)
    names = whole.ring.names
    found: list[tuple[Fraction, ...]] = []
    for i, coord in enumerate(names):
        patch = dehomogenize(whole, coord)
        dim = patch.dimension_or_none()
        if dim is None:
            continue
        if dim > 0:
            raise ImproperIntersectionError(
                f"patch {coord} = 1 carries a positive-dimensional locus"
            )
        for pt in rational_points(patch):
            coords = tuple(
                Fraction(1) if n == coord else pt[n] for n in names
            )
            if any(coords[j] != 0 for j in range(i)):
                continue  # owned by an earlier patch
            found.append(coords)
    return sorted(set(found))
