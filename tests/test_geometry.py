import random
from fractions import Fraction

import pytest

from singpair.errors import ImproperIntersectionError
from singpair.factor import factor
from singpair.geometry import (
    _characteristic_polynomial,
    _eliminant,
    center_quadratic_form,
    dehomogenize,
    projective_rational_points,
    quadric_rank_drop,
    rational_points,
    radical_zero_dim,
    singular_locus,
    zero_dim_decompose,
)
from singpair.ideals import Ideal, fresh_name, reduction_budget
from singpair.polyring import MonomialOrder, Polynomial, PolynomialRing

pytestmark = pytest.mark.hashseed


R2 = PolynomialRing(("x", "y"))
R3 = PolynomialRing(("x", "y", "z"))
R4 = PolynomialRing(("x", "y", "z", "t"))


def test_decompose_single_reduced_point():
    comps = zero_dim_decompose(Ideal.parse(R2, "x - 1; y + 2"))
    assert len(comps) == 1
    c = comps[0]
    assert c.multiplicity == 1 and c.residue_degree == 1
    assert c.point == {"x": Fraction(1), "y": Fraction(-2)}


def test_decompose_fat_point():
    comps = zero_dim_decompose(Ideal.parse(R2, "x^2; y - 1"))
    assert len(comps) == 1
    assert comps[0].multiplicity == 2
    assert comps[0].residue_degree == 1
    assert comps[0].point == {"x": Fraction(0), "y": Fraction(1)}


def test_decompose_two_points_and_a_conjugate_pair():
    comps = zero_dim_decompose(Ideal.parse(R2, "(x - 1)*(x + 1)*(x^2 - 2); y"))
    rational = [c for c in comps if c.residue_degree == 1]
    irrational = [c for c in comps if c.residue_degree == 2]
    assert len(rational) == 2 and len(irrational) == 1
    assert sum(c.local_length for c in comps) == 4
    assert {c.point["x"] for c in rational} == {Fraction(1), Fraction(-1)}


def test_decompose_mixed_multiplicity():
    comps = zero_dim_decompose(Ideal.parse(R2, "x^2*(x - 1); y"))
    by_mult = {c.multiplicity: c for c in comps}
    assert set(by_mult) == {1, 2}
    assert by_mult[2].point["x"] == 0
    assert by_mult[1].point["x"] == 1


def test_radical_zero_dim():
    rad = radical_zero_dim(Ideal.parse(R2, "x^2; y^3"))
    assert rad == Ideal.parse(R2, "x; y")


def test_radical_zero_dim_returns_a_radical_ideal_itself():
    # both eliminants, x^2 - 1 and y^2 - 1, are squarefree, so the ideal is
    # its own radical; of (x^2 - 1, y^2) only y's eliminant y^2 is not
    # squarefree, so only its squarefree part y is adjoined
    ideal = Ideal.parse(R2, "x^2 - 1; y - x")
    assert radical_zero_dim(ideal) is ideal
    fat = Ideal.parse(R2, "x^2 - 1; y^2")
    assert radical_zero_dim(fat).gens == fat.gens + (R2.var("y"),)


def test_rational_points_sorted():
    pts = rational_points(Ideal.parse(R2, "x^2 - 1; y - x"))
    assert pts == [
        {"x": Fraction(-1), "y": Fraction(-1)},
        {"x": Fraction(1), "y": Fraction(1)},
    ]


def test_singular_locus_of_cone():
    # the quadric cone in four variables is singular exactly along x = y = z = 0
    X = Ideal.parse(R4, "x^2 - y^2 + t*z^2")
    sing = singular_locus(X)
    line = Ideal.parse(R4, "x; y; z")
    assert sing.variety_contained_in(line) and line.variety_contained_in(sing)
    assert not singular_locus(X).is_trivial()


def test_smooth_hypersurface():
    assert singular_locus(Ideal.parse(R3, "x^2 + y^2 + z + 1")).is_trivial()
    assert singular_locus(Ideal(R3)).is_trivial()  # the whole space


def test_a_constant_jacobian_minor_answers_smooth_without_a_basis():
    # d/dt = 1 on the chart relation xp^2 - yp^2 + t: the chart is smooth,
    # and no basis of the relations plus the minors is computed
    ring = PolynomialRing(("xp", "yp", "t"))
    with reduction_budget(10**6) as meter:
        assert singular_locus(Ideal.parse(ring, "xp^2 - yp^2 + t")).is_trivial()
    assert meter.used == 0


def test_center_quadratic_form_of_cone():
    f = R4.parse("x^2 - y^2 + t*z^2")
    gens = (R4.var("x"), R4.var("y"), R4.var("z"))
    m = center_quadratic_form(f, gens)
    assert m is not None
    assert m[0][0] == R4.const(2)
    assert m[1][1] == R4.const(-2)
    assert m[2][2] == R4.parse("2*t")
    assert m[0][1].is_zero()
    det = quadric_rank_drop(m, R4)
    assert det == R4.var("t")


def test_center_quadratic_form_shifted_scaled():
    # center presented as (2x - 2, y + 1): same detector after normalization
    f = R2.parse("(x - 1)^2 - 3*(x - 1)*(y + 1) + 2*(y + 1)^2")
    m = center_quadratic_form(f, (R2.parse("2*x - 2"), R2.parse("y + 1")))
    assert m is not None
    assert m[0][0] == R2.parse("1/2")  # 2 * 1 / 4
    assert m[1][1] == R2.const(4)
    assert m[0][1] == R2.parse("-3/2")


def test_center_quadratic_form_shifts_by_an_exact_fraction():
    # the shift of 3x - 1 is 1/3, which no float holds
    f = R2.parse("(3*x - 1)^2 + y^2 - 5*(3*x - 1)*y")
    m = center_quadratic_form(f, (R2.parse("3*x - 1"), R2.var("y")))
    assert m == [[R2.const(2), R2.const(-5)], [R2.const(-5), R2.const(2)]]


def test_center_quadratic_form_rejects_bad_shapes():
    f = R2.parse("x^2 + y")
    assert center_quadratic_form(f, (R2.var("x"), R2.var("y"))) is None  # y-term degree 1
    assert center_quadratic_form(R2.parse("x^2"), (R2.parse("x + y"),)) is None


def reference_center_quadratic_form(f, center_gens):
    """The matrix center_quadratic_form gives, read off term by term: each
    generator scale*v + shift is split apart, f is moved so that the center
    sits at the origin, and every term of degree 2 in the center variables
    is added, divided by the two scales, into its entry (doubled on the
    diagonal). None when a generator is not of that shape, two share a
    variable, or a term has degree below 2 in the center variables."""
    ring = f.ring
    pieces = []
    for g in center_gens:
        used = g.variables_used()
        if len(used) != 1:
            return None
        (name,) = used
        if g.degree_in(name) != 1 or name in {n for n, _s, _c in pieces}:
            return None
        scale = g.terms[tuple(int(n == name) for n in ring.names)]
        rest = g - ring.var(name) * scale
        if not rest.is_constant():
            return None
        pieces.append((name, scale, rest.constant_value()))
    shifted = f.substitute(
        {name: ring.var(name) - Fraction(shift, scale) for name, scale, shift in pieces},
        ring,
    )
    indices = [ring.index(name) for name, _s, _c in pieces]
    scales = [scale for _n, scale, _c in pieces]
    m = len(pieces)
    matrix = [[ring.zero() for _ in range(m)] for _ in range(m)]
    for e, c in shifted.terms.items():
        wdeg = sum(e[i] for i in indices)
        if wdeg < 2:
            return None
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


def random_polynomial(rng, ring, degree, names=None):
    """One to four terms of total degree at most degree in names (every
    variable of ring when None), with small rational coefficients."""
    names = ring.names if names is None else names
    out = ring.zero()
    for _ in range(rng.randint(1, 4)):
        term = ring.const(rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 5))))
        for _ in range(rng.randint(0, degree)):
            term = term * ring.var(rng.choice(names))
        out = out + term
    return out


def test_center_quadratic_form_matches_the_term_by_term_reference():
    # coordinate-like centers with fractional shifts and scales; f in the
    # square of the center ideal gives the same matrix both ways, and f
    # plus a term of degree 0 or 1 in the center variables gives None
    rng = random.Random("quadratic-form")
    numbers = (1, -1, 2, -3, Fraction(1, 3), Fraction(-3, 2), Fraction(5, 7))
    in_square = outside = 0
    for _ in range(60):
        names = rng.sample(R4.names, rng.randint(1, 3))
        others = [n for n in R4.names if n not in names]
        gens = tuple(
            R4.var(n) * rng.choice(numbers) + rng.choice((0,) + numbers) for n in names
        )
        f = R4.zero()
        for k in range(len(gens)):
            for l in range(k, len(gens)):
                if rng.random() < 0.7:
                    f = f + gens[k] * gens[l] * random_polynomial(rng, R4, 1)
        if rng.random() < 0.5:
            f = f + gens[0] ** 3 * random_polynomial(rng, R4, 1)
        want = reference_center_quadratic_form(f, gens)
        assert want is not None or f.is_zero()
        assert center_quadratic_form(f, gens) == want
        in_square += want is not None
        k = rng.randrange(len(gens))
        low = random_polynomial(rng, R4, 1, others) if others else R4.const(rng.choice(numbers))
        if rng.random() < 0.5:
            low = low * gens[k]
        g = f + low
        assert reference_center_quadratic_form(g, gens) is None, (g, gens)
        assert center_quadratic_form(g, gens) is None, (g, gens)
        outside += 1
    assert in_square >= 50 and outside == 60


def test_projective_rational_points():
    P = PolynomialRing(("S", "T", "X", "Y", "Z"))
    # two incidences from the projective quadric corpus
    pt1 = projective_rational_points(
        tuple(P.parse(s) for s in ("X - Y", "T", "X", "Y", "Z"))
    )
    assert pt1 == [(1, 0, 0, 0, 0)]
    pt3 = projective_rational_points(
        tuple(P.parse(s) for s in ("X - Y", "T", "S", "Z"))
    )
    assert pt3 == [(0, 0, 1, 1, 0)]
    # irrelevant ideal: no points at all
    empty = projective_rational_points(
        tuple(P.parse(s) for s in ("X + Y", "S", "Z", "X", "T"))
    )
    assert empty == []


def test_dehomogenize_keeps_the_patch_ring_without_relations():
    P = PolynomialRing(("S", "T", "X"))
    patch = dehomogenize(Ideal(P, (P.parse("S*X - T^2"), P.parse("X^2 - X^2"))), "T")
    assert patch.ring.names == ("S", "X")
    assert patch.gens == (patch.ring.parse("S*X - 1"),)
    empty = dehomogenize(Ideal(P, ()), "S")
    assert empty.ring.names == ("T", "X")
    assert empty.is_zero()


def test_projective_positive_dimensional_rejected():
    P = PolynomialRing(("S", "T", "X"))
    with pytest.raises(ImproperIntersectionError):
        projective_rational_points((P.parse("X"),))


def reference_eliminant(ideal, form):
    """The monic generator of (ideal + (u - form)) meet Q[u], by eliminating
    the ideal's variables from the ring with u adjoined. The elimination
    starts from the reduced basis: the products below have many generators
    of high degree, on which it takes minutes."""
    ring = ideal.ring
    u = fresh_name(ring.names, "_u")
    work = PolynomialRing((*ring.names, u))
    gens = [g.in_ring(work) for g in ideal.groebner()]
    gens.append(work.var(u) - form.in_ring(work))
    gb = Ideal(work, gens).eliminate(set(ring.names)).groebner()
    assert len(gb) == 1
    return gb[0]


def reference_saturate(ideal, f):
    """ideal : f^infinity as the elimination of t from ideal + (1 - t*f),
    starting from the reduced basis."""
    t = fresh_name(ideal.ring.names)
    work = PolynomialRing((t, *ideal.ring.names), MonomialOrder.elim(1))
    gens = [g.in_ring(work) for g in ideal.groebner()]
    gens.append(work.one() - work.var(t) * f.in_ring(work))
    return Ideal(work, gens).eliminate({t}).in_ring(ideal.ring)


def squarefree(h):
    out = h.ring.one()
    for g, _m in factor(h)[1]:
        out = out * g
    return out


def reference_components(ideal):
    """(reduced basis of the prime, multiplicity, residue degree) of every
    component, in zero_dim_decompose's order, by eliminations: the radical
    from the squarefree eliminants of the variables, the first separating
    form of the same sequence, and each local length the dimension of the
    saturation by the product of the other components' images."""
    ring = ideal.ring
    if ideal.vector_space_dimension() == 0:
        return []
    rad = ideal.plus([
        squarefree(h).substitute({h.ring.names[0]: ring.var(n)}, ring)
        for n in ring.names
        for h in [reference_eliminant(ideal, ring.var(n))]
    ])
    rad_dim = rad.vector_space_dimension()
    for k in range(64):
        form = ring.zero()
        for i, name in enumerate(ring.names):
            form = form + ring.var(name) * Fraction(k) ** i
        h = reference_eliminant(rad, form)
        if h.total_degree() == rad_dim:
            break
    pieces = sorted((g for g, _m in factor(h)[1]), key=lambda g: (g.total_degree(), str(g)))
    images = [g.substitute({h.ring.names[0]: form}, ring) for g in pieces]
    out = []
    for i, (piece, image) in enumerate(zip(pieces, images)):
        separator = ring.one()
        for j, other in enumerate(images):
            if j != i:
                separator = separator * other
        primary = reference_saturate(ideal, separator)
        length = primary.vector_space_dimension()
        assert length % piece.total_degree() == 0
        prime = rad.plus([image]).groebner()
        out.append((prime, length // piece.total_degree(), piece.total_degree()))
    return sorted(out, key=lambda c: (c[2], str(c[0])))


def product(ring, ideals):
    gens = [ring.one()]
    for ideal in ideals:
        gens = [g * h for g in gens for h in ideal.gens]
    return Ideal(ring, gens)


def random_component(rng, ring):
    """A point ideal in two variables: a fat point that is a power of a
    maximal ideal, a curvilinear one, a Galois orbit of two or three
    conjugate points, or four conjugates no coordinate separates. x and y
    are bound by name, as ring.parse binds them, in either variable order."""
    x, y = ring.var("x"), ring.var("y")
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    kind = rng.randrange(4)
    if kind == 0:
        e = rng.randint(1, 3)
        return Ideal(ring, [(x - a) ** i * (y - b) ** (e - i) for i in range(e + 1)])
    if kind == 1:
        return Ideal(ring, ((x - a) - (y - b) ** 2, (y - b) ** rng.randint(2, 3)))
    if kind == 2:
        p = rng.choice(("x^2 - 2", "x^2 + x + 1", "x^3 - 2", "x^3 - x - 1"))
        return Ideal(ring, (ring.parse(p), y - b - x * rng.choice((0, 1, -2))))
    d = rng.choice((2, 3, 5))
    return Ideal(ring, (x**2 - d, y**2 - 3 * d))


def seeded_zero_dim_ideals():
    """Products of one to three random point ideals in either variable
    order, one point ideal under lex, and three of dimension 30 or more."""
    rng = random.Random("zero-dim")
    ideals = []
    for k in range(24):
        ring = PolynomialRing(("x", "y") if k % 2 else ("y", "x"))
        parts = [random_component(rng, ring) for _ in range(rng.randint(1, 3))]
        assert not any(part.is_trivial() for part in parts), k
        ideals.append(product(ring, parts))
    lex = PolynomialRing(("x", "y"), MonomialOrder.lex())
    ideals.append(Ideal.parse(lex, "(x^2 - 2)*(x - 1)^2; (y - x)^2"))
    ring = PolynomialRing(("x", "y"))
    ideals.append(Ideal.parse(ring, "(x^3 - 2)*(x - 1)^4*(x^2 + 1)^2; y^3 - x*y - 1"))  # 33
    # a grid of 30: no coordinate separates the four points over x^2 = 3,
    # y^2 = 5, and (1, -1) is a fat point of length 6
    ideals.append(Ideal.parse(ring, "(x^2 - 3)*(x - 1)^3*(x + 2); (y^2 - 5)*(y + 1)^2*y"))
    R3 = PolynomialRing(("x", "y", "z"))
    # one point of residue degree 10 and multiplicity 3
    ideals.append(Ideal.parse(R3, "x^2 - 2; (y - x)^3; z^5 - z - x"))
    return ideals


def test_decomposition_matches_the_elimination_reference():
    sizes = []
    for ideal in seeded_zero_dim_ideals():
        got = [(c.prime.groebner(), c.multiplicity, c.residue_degree)
               for c in zero_dim_decompose(ideal)]
        assert got == reference_components(ideal), ideal
        sizes.append(ideal.vector_space_dimension())
    assert sum(size >= 30 for size in sizes) >= 3


def test_one_point_components_match_the_rad_plus_reference():
    # a scheme on one point, rational or one Galois orbit, has a separating
    # eliminant with one factor, and its prime is the radical itself; the
    # four points over x^2 = 3, y^2 = 9 are two orbits
    rng = random.Random("one-point")
    single = 0
    for _ in range(16):
        ideal = random_component(rng, R2)
        got = [(c.prime.groebner(), c.multiplicity, c.residue_degree)
               for c in zero_dim_decompose(ideal)]
        assert got == reference_components(ideal), ideal
        single += len(got) == 1
    assert single >= 12
    for _ in range(8):
        a, b, d = (rng.randint(-3, 3) for _ in range(3))
        x, y, z = R3.gens()
        ideal = Ideal(R3, ((x - a) ** rng.randint(1, 3), y - b - (x - a) * rng.randint(-2, 2),
                           (z - d) ** rng.randint(1, 2) - (x - a) * rng.randint(0, 1)))
        (c,) = zero_dim_decompose(ideal)
        assert [(c.prime.groebner(), c.multiplicity, c.residue_degree)] == reference_components(ideal)
        assert c.point == {"x": a, "y": b, "z": d}


def test_eliminants_match_the_elimination_reference():
    rng = random.Random("eliminant")
    degrees = set()
    for ideal in seeded_zero_dim_ideals():
        ring = ideal.ring
        forms = [ring.var(n) for n in ring.names]
        # the elimination reference is slow on a generic form in three
        # variables, and takes minutes on a quadratic form once the quotient
        # is larger
        if ring.nvars == 2:
            forms.append(sum((ring.var(n) * rng.choice((-3, -1, 2, 3)) for n in ring.names), ring.one()))
        if ideal.vector_space_dimension() <= 6:
            forms.append(ring.var(ring.names[0]) ** 2 - ring.var(ring.names[-1]) * Fraction(1, 2))
        for form in forms:
            got = _eliminant(ideal, form)
            want = reference_eliminant(ideal, form)
            assert got == want and got.ring == want.ring
            degrees.add(got.total_degree())
    assert max(degrees) >= 30


def determinant(rows):
    """By Gaussian elimination over Q."""
    rows = [[Fraction(v) for v in row] for row in rows]
    n, det = len(rows), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            q = rows[i][k] / rows[k][k]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[k])]
    return det


def test_characteristic_polynomial_matches_determinants():
    # det(c - M) at n + 1 values of c pins down the degree n polynomial;
    # sparse matrices make the Hessenberg reduction swap and skip columns
    rng = random.Random("charpoly")
    for n in range(1, 10):
        for _ in range(4):
            dense = [
                [rng.choice((0, 0, 0, 1, -2, Fraction(1, 3))) for _ in range(n)]
                for _ in range(n)
            ]
            columns = [{i: dense[i][j] for i in range(n) if dense[i][j]} for j in range(n)]
            coefficients = _characteristic_polynomial(columns)
            assert len(coefficients) == n + 1 and coefficients[-1] == 1
            for c in range(n + 1):
                shifted = [
                    [(c if i == j else 0) - dense[i][j] for j in range(n)] for i in range(n)
                ]
                assert sum(a * c**k for k, a in enumerate(coefficients)) == determinant(shifted)
