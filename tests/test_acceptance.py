"""Acceptance criteria, one test per criterion, exact assertions throughout.

Each test prints a single verdict line so a verbose run reads as a
ten-line scorecard.  Everything here recomputes from scratch against
frozen expected values; no tolerance anywhere.
"""

import random
from fractions import Fraction
from functools import cache
from pathlib import Path

from singpair.blowup import ResolutionTower
from singpair.cycles import Cycle, CycleFamily, Perversity
from singpair.factor import factor, is_irreducible
from singpair.geometry import (
    center_quadratic_form,
    projective_rational_points,
    quadric_rank_drop,
    singular_locus,
)
from singpair.ideals import Ideal, groebner, normal_form, s_polynomial
from singpair.pairing import audit, compare_towers, pair
from singpair.polyring import Polynomial, PolynomialRing
from singpair.scenario import Workspace, parse_scenario
from singpair.strata import Stratification

CORPUS = Path(__file__).resolve().parents[1] / "src" / "singpair" / "corpus"

CONE = PolynomialRing(("x", "y", "z", "t"))
CONE_L = PolynomialRing(("x", "y", "z", "t", "l"))
PROJ = PolynomialRing(("s", "t", "x", "y", "z"))


def verdict(n: int, label: str) -> None:
    print(f"criterion {n:2d} PASS  {label}")


def cone_tower() -> ResolutionTower:
    tower = ResolutionTower.affine(CONE, (CONE.parse("x^2 - y^2 + t*z^2"),))
    tower.blow_up((CONE.var("x"), CONE.var("y"), CONE.var("z")))
    return tower


@cache
def coarse() -> Stratification:
    return Stratification(cone_tower(), rules=("images",))


@cache
def refined() -> Stratification:
    return Stratification(cone_tower(), rules=("images", "fibers"))


def divisor() -> Cycle:
    return Cycle("D", Ideal.parse(CONE, "x - y; t"), Perversity.zero(3))


def alpha0() -> Cycle:
    return Cycle("alpha0", Ideal.parse(CONE, "x - y - z^2; x + y; t"), Perversity((1, 1, 1)))


def alpha1() -> Cycle:
    gens = "x - y - z^2; x + y + 1; t - 1"
    return Cycle("alpha1", Ideal.parse(CONE, gens), Perversity((1, 1, 1)))


def family_a() -> CycleFamily:
    total = Ideal.parse(CONE_L, "x - y - z^2; t + x + y; t - l")
    return CycleFamily("A", total, "l", marked=(0, 1), perversity=Perversity((1, 1, 1)))


def test_criterion_01_resolution_charts_smooth():
    # one blowup of the singular line gives three charts, all smooth
    leaves = cone_tower().nonempty_leaves()
    assert len(leaves) == 3
    assert sorted(c.name for c in leaves) == ["aff/s1p0", "aff/s1p1", "aff/s1p2"]
    for chart in leaves:
        assert singular_locus(chart.relations).is_trivial()
    verdict(1, "blowup of the cone line yields 3 charts, each smooth")


def test_criterion_02_fiber_structure_over_center():
    f = CONE.parse("x^2 - y^2 + t*z^2")
    m = center_quadratic_form(f, (CONE.var("x"), CONE.var("y"), CONE.var("z")))
    assert m is not None
    assert quadric_rank_drop(m, CONE) == CONE.var("t")
    fiber_ring = PolynomialRing(("x", "y", "z"))
    degenerate = fiber_ring.parse("x^2 - y^2")
    _, parts = factor(degenerate)
    assert len(parts) == 2
    assert sorted(str(g) for g, _ in parts) == ["x + y", "x - y"]
    for t0 in (1, -1, 2, -2, 3):
        sign = "+" if t0 > 0 else "-"
        generic = fiber_ring.parse(f"x^2 - y^2 {sign} {abs(t0)}*z^2")
        assert is_irreducible(generic)
    verdict(2, "rank drops exactly at t = 0; that fiber splits, others stay whole")


def test_criterion_03_headline_degrees():
    tangent = pair(divisor(), alpha0(), coarse(), allow_noncomplementary=True)
    assert tangent["degree"] == 1
    displaced = pair(divisor(), alpha1(), coarse(), allow_noncomplementary=True)
    assert displaced["degree"] == 0
    assert displaced["charts"] == {}
    assert displaced["upstairs_degree"] == 0
    verdict(3, "D meets the tangent member once upstairs and the displaced one never")


def test_criterion_04_audit_verdict_flips_with_refinement():
    loose = audit(
        divisor(), family_a(), coarse(),
        mode="strong", allow_noncomplementary=True, allow_nonstandard=True,
    )
    assert loose["family_check"]["ok"] is True
    assert loose["verdict"] == "INCONSISTENT"
    assert [v["degree"] for v in loose["values"]] == [1, 0]
    tight = audit(
        divisor(), family_a(), refined(),
        mode="strong", allow_noncomplementary=True, allow_nonstandard=True,
    )
    assert tight["family_check"]["ok"] is False
    assert tight["verdict"] == "FAMILY_REJECTED"
    verdict(4, "image-only strata admit the inconsistent family; adding fibers rejects it")


def test_criterion_05_projective_incidences():
    relations = PROJ.parse("s*x^2 - s*y^2 + t*z^2")
    dbar = Ideal.parse(PROJ, "x - y; t")
    irrelevant = Ideal(PROJ, tuple(PROJ.var(n) for n in PROJ.names))
    expected = {
        "x; y; z": [tuple(map(Fraction, (1, 0, 0, 0, 0)))],
        "x + y; s; z": [],
        "x - y; s; z": [tuple(map(Fraction, (0, 0, 1, 1, 0)))],
    }
    for gens, points in expected.items():
        center = Ideal.parse(PROJ, gens)
        meet = dbar.plus(center).plus([relations]).saturate_ideal(irrelevant)
        if meet.is_trivial():
            assert points == []
        else:
            assert projective_rational_points(meet.gens) == points
    verdict(5, "divisor closure hits the first and third centers in single points")


def test_criterion_06_projective_resolution_replay():
    tower = ResolutionTower.projective(PROJ, (PROJ.parse("s*x^2 - s*y^2 + t*z^2"),))
    tower.blow_up(tuple(PROJ.parse(g) for g in ("x", "y", "z")))
    by_name = {c.name: c for c in tower.nonempty_leaves()}
    pivot = by_name["t=1/s1p2"]  # the chart where x generates the center
    locus = singular_locus(pivot.relations)
    assert [str(g) for g in locus.groebner()] == ["zp", "s", "yp^2 - 1"]
    tower.blow_up(tuple(PROJ.parse(g) for g in ("x + y", "s", "z")))
    tower.blow_up(tuple(PROJ.parse(g) for g in ("x - y", "s", "z")))
    report = tower.audit()
    assert report["all_charts_smooth"] is True
    assert report["nonempty_leaves"] == 25
    verdict(6, "residual singular points sit where expected and two more blowups clear them")


def test_criterion_07_smooth_case_boundary():
    plane = PolynomialRing(("x", "y"))
    tower = ResolutionTower.affine(plane, ())
    tower.blow_up((plane.var("x"), plane.var("y")))
    strat = Stratification(tower, rules=("images",))
    h = Cycle("H", Ideal.parse(plane, "y - 1"), Perversity.zero(2))
    v = Cycle("V", Ideal.parse(plane, "x - 1"), Perversity((0, 1)))
    clean = pair(h, v, strat)
    assert clean["complementary"] is True
    assert clean["degree"] == 1 and clean["direct_degree"] == 1
    d1 = Cycle("d1", Ideal.parse(plane, "y - x"), Perversity((0, 1)))
    d2 = Cycle("d2", Ideal.parse(plane, "y + x"), Perversity((0, 1)))
    through = pair(d1, d2, strat, allow_noncomplementary=True)
    assert through["complementary"] is False  # out of the proposition's hypotheses
    assert through["degree"] == 0 and through["direct_degree"] == 1
    verdict(7, "lines avoiding the center pair as downstairs; through the center they drop")


def test_criterion_08_tower_extension_is_invisible():
    longer = cone_tower()
    longer.blow_up(tuple(CONE.parse(g) for g in ("x - 2", "y - 1", "z - 1", "t + 3")))
    strats = [coarse(), Stratification(longer, rules=("images",))]
    report = compare_towers(divisor(), alpha0(), strats, allow_noncomplementary=True)
    assert report["degrees"] == [1, 1]
    assert report["agree"] is True
    verdict(8, "a disjoint extra blowup leaves the pushed zero cycle untouched")


def _random_poly(rng: random.Random, ring: PolynomialRing, deg: int, terms: int) -> Polynomial:
    coeffs = {}
    n = len(ring.names)
    for _ in range(rng.randint(1, terms)):
        while True:
            e = tuple(rng.randint(0, deg) for _ in range(n))
            if sum(e) <= deg:
                break
        coeffs[e] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Polynomial(ring, coeffs)


def _monomial_dim_oracle(ring: PolynomialRing, gens: list[Polynomial]) -> int:
    supports = [frozenset(i for i, e in enumerate(g.leading_monomial()) if e) for g in gens]
    n = len(ring.names)
    best = -1
    for mask in range(1 << n):
        keep = frozenset(i for i in range(n) if mask >> i & 1)
        if any(s <= keep for s in supports):
            continue
        best = max(best, len(keep))
    return best


def test_criterion_09_engine_property_suites():
    rng = random.Random(20260819)
    rings = [PolynomialRing(tuple("xyz"[:k])) for k in (1, 2, 3)]

    for _ in range(200):
        ring = rng.choice(rings)
        gens = [_random_poly(rng, ring, 3, 3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        basis = groebner(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                spoly = s_polynomial(basis[i], basis[j])
                assert normal_form(spoly, basis).is_zero()

    for _ in range(100):
        ring = rng.choice(rings)
        ideal = Ideal(ring, tuple(_random_poly(rng, ring, 3, 3) for _ in range(2)))
        f = _random_poly(rng, ring, 2, 2)
        if f.is_zero():
            continue
        sat = ideal.saturate(f)
        assert sat.saturate(f) == sat
        assert sat.quotient(f) == sat

    for _ in range(100):
        ring = rng.choice(rings)
        monos = []
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in ring.names)
            if sum(e) == 0:
                continue
            monos.append(Polynomial(ring, {e: Fraction(1)}))
        if not monos:
            continue
        ideal = Ideal(ring, tuple(monos))
        assert ideal.krull_dimension() == _monomial_dim_oracle(ring, monos)

    for _ in range(500):
        ring = rng.choice(rings)
        f, g, h = (_random_poly(rng, ring, 2, 3) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f - g) + g == f
        assert f * ring.one() == f
    verdict(9, "Buchberger, saturation, dimension, and ring axioms hold on random inputs")


def test_criterion_10_hypothesis_satisfying_audits_are_consistent():
    exercised = 0
    for path in sorted(CORPUS.glob("*.scn")):
        scenario = parse_scenario(path)
        ws = Workspace(scenario)
        for task in scenario.tasks:
            if task.kind != "audit":
                continue
            cycle = scenario.cycles[task.args["cycle"]]
            family = scenario.families[task.args["family"]]
            if cycle.perversity is None or family.perversity is None:
                continue
            if not (cycle.perversity.is_standard() and family.perversity.is_standard()):
                continue
            if not cycle.perversity.is_complementary_to(family.perversity):
                continue
            strat = ws.strat(task.args["strat"])
            report = audit(cycle, family, strat, mode=task.args.get("mode", "strong"))
            assert report["verdict"] == "CONSISTENT", (path.name, task.name)
            exercised += 1
    assert exercised >= 2
    verdict(10, "every in-hypothesis bundled audit lands CONSISTENT")
