"""Geometric queries on affine and projective varieties.

Zero-dimensional ideals are decomposed into primary components through a
shape-position linear form, which yields prime components, multiplicities,
residue degrees, and rational coordinates in one pass. Smoothness is decided
by the Jacobian criterion on a complete-intersection presentation. The
quadratic-form detector extracts the symmetric matrix of a hypersurface
along a coordinate-like center; its determinant cuts out the locus where
the normal quadric degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    CompleteIntersectionError,
    EmptyVarietyError,
    ImproperIntersectionError,
    NotZeroDimensionalError,
)
from .factor import factor
from .ideals import Ideal, fresh_name
from .polyring import Polynomial, PolynomialRing, Scalar


@dataclass(frozen=True)
class PrimaryComponent:
    """One point (possibly irrational) of a zero-dimensional scheme."""

    prime: Ideal
    primary: Ideal
    multiplicity: int
    residue_degree: int
    point: dict[str, Scalar] | None  # rational coordinates when degree 1

    @property
    def local_length(self) -> int:
        return self.multiplicity * self.residue_degree


def _eliminant(ideal: Ideal, form: Polynomial) -> Polynomial:
    """Minimal-polynomial generator of the ideal's image under the form."""
    ring = ideal.ring
    u = fresh_name(ring.names, "_u")
    work = PolynomialRing((*ring.names, u))
    gens = [g.in_ring(work) for g in ideal.gens]
    gens.append(work.var(u) - form.in_ring(work))
    projected = Ideal(work, gens).eliminate(set(ring.names))
    gb = projected.groebner()
    assert len(gb) == 1, "eliminant of a zero-dimensional ideal must be principal"
    return gb[0]


def radical_zero_dim(ideal: Ideal) -> Ideal:
    """Radical of a zero-dimensional ideal via squarefree eliminants."""
    ring = ideal.ring
    ideal.vector_space_dimension()  # raises when not zero-dimensional
    extra = []
    for name in ring.names:
        h = _eliminant(ideal, ring.var(name))
        dense_ring = h.ring
        _, factors = factor(h)
        sqfree = dense_ring.one()
        for g, _m in factors:
            sqfree = sqfree * g
        extra.append(sqfree.substitute({dense_ring.names[0]: ring.var(name)}, ring))
    return ideal.plus(extra)


def zero_dim_decompose(ideal: Ideal) -> list[PrimaryComponent]:
    """Primary components of a zero-dimensional ideal.

    The sum over components of multiplicity * residue_degree always equals
    the vector-space dimension of the quotient; this is asserted on every
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
    assert form is not None, "no separating linear form found"
    uname = eliminant.ring.names[0]
    _, irreducibles = factor(eliminant)
    pieces = sorted((g for g, _m in irreducibles), key=lambda g: (g.total_degree(), str(g)))
    images = [g.substitute({uname: form}, ring) for g in pieces]
    components = []
    for i, (piece, image) in enumerate(zip(pieces, images)):
        prime = rad.plus([image])
        prime = Ideal(ring, prime.groebner())
        degree = piece.total_degree()
        if len(pieces) == 1:
            primary = ideal
        else:
            separator = ring.one()
            for j, other in enumerate(images):
                if j != i:
                    separator = separator * other
            primary = ideal.saturate(separator)
        length = primary.vector_space_dimension()
        assert length % degree == 0, "local length not divisible by residue degree"
        point = None
        if degree == 1:
            point = {}
            for name in ring.names:
                value = prime.normal_form(ring.var(name))
                assert value.is_constant(), "rational point coordinate is not constant"
                point[name] = value.constant_value()
        components.append(
            PrimaryComponent(
                prime=prime,
                primary=primary,
                multiplicity=length // degree,
                residue_degree=degree,
                point=point,
            )
        )
    if sum(c.local_length for c in components) != total:
        raise AssertionError("lengths do not add up")
    components.sort(key=lambda c: (c.residue_degree, str(c.prime.groebner())))
    return components


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
    return relations.plus(mins)


def is_smooth(relations: Ideal) -> bool:
    return singular_locus(relations).is_trivial()


# -- quadratic form along a center ---------------------------------------------


def _affine_coordinate(g: Polynomial) -> tuple[str, Scalar, Scalar] | None:
    """Decompose g = scale * name + shift when g is affine in one variable."""
    used = g.variables_used()
    if len(used) != 1:
        return None
    (name,) = used
    if g.degree_in(name) != 1:
        return None
    unit = tuple(1 if i == g.ring.index(name) else 0 for i in range(g.ring.nvars))
    scale = g.terms[unit]
    rest = g - g.ring.var(name) * scale
    if not rest.is_constant():
        return None
    return name, scale, rest.constant_value()


def center_quadratic_form(
    f: Polynomial, center_gens: tuple[Polynomial, ...]
) -> list[list[Polynomial]] | None:
    """Symmetric matrix of f's quadratic part along a coordinate-like center.

    Requires every center generator to be affine in a single distinct
    variable (scale * v + shift) and f to lie in the square of the center
    ideal. Entry (k, l) holds the coefficient of center_gens[k] *
    center_gens[l]; everything is scaled by 2 to stay integral, which does
    not move the vanishing locus of any minor. Returns None when the shape
    does not match.
    """
    ring = f.ring
    pieces = []
    names_seen = set()
    for g in center_gens:
        got = _affine_coordinate(g)
        if got is None or got[0] in names_seen:
            return None
        names_seen.add(got[0])
        pieces.append(got)
    # move the center to the coordinate origin: v -> v - shift/scale
    shifted = f.substitute(
        {
            name: ring.var(name) - ring.const(Fraction(shift, scale))
            for name, scale, shift in pieces
        },
        ring,
    )
    indices = [ring.index(name) for name, _s, _c in pieces]
    scales = [scale for _n, scale, _c in pieces]
    m = len(pieces)
    matrix = [[ring.zero() for _ in range(m)] for _ in range(m)]
    for e, c in shifted.terms.items():
        wdeg = sum(e[i] for i in indices)
        if wdeg < 2:
            return None  # f is not in the square of the center ideal
        if wdeg > 2:
            continue
        rest = list(e)
        for i in indices:
            rest[i] = 0
        coeff = Polynomial(ring, {tuple(rest): c})
        positions = [k for k, i in enumerate(indices) if e[i] > 0]
        if len(positions) == 1:
            k = positions[0]
            matrix[k][k] = matrix[k][k] + coeff * (Fraction(2) / (scales[k] * scales[k]))
        else:
            k, l = positions
            entry = coeff * (Fraction(1) / (scales[k] * scales[l]))
            matrix[k][l] = matrix[k][l] + entry
            matrix[l][k] = matrix[l][k] + entry
    return matrix


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
