"""Intersection numbers through the tower, and audits of the induced pairing.

Both cycles are moved to every chart by proper transform, intersected where
the resolved space is smooth, and the resulting zero cycle is pushed back to
the base with residue degree bookkeeping.  Ownership constraints keep each
intersection point from being counted once per chart that sees it.

The audit replays the pairing against every marked value of a family and
reports whether the answers agree: on the nose, in degree only, or not at
all.  A family that fails its perversity check is rejected outright.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .blowup import Chart, blowdown_image, proper_transform
from .cycles import (
    Cycle,
    CycleFamily,
    error_terms,
    perversity_check,
    strong_family_check,
    weak_family_check,
)
from .errors import (
    ComplementarityError,
    CompleteIntersectionError,
    ImproperIntersectionError,
    PerversityError,
    SmoothnessError,
)
from .geometry import PrimaryComponent, singular_locus, zero_dim_decompose
from .ideals import Ideal
from .strata import Stratification


def transform_cycle(strat: Stratification, ideal: Ideal) -> dict[str, Ideal]:
    """Proper transform of a cycle on every chart where it survives.

    A cycle inside a level 1 stratum would be erased by the saturation, so
    that case is refused instead of silently dropped.
    """
    cyc = ideal.in_ring(strat.base_ring)
    for piece in strat.level(1):
        if cyc.variety_contained_in(piece):
            gens = "; ".join(str(g) for g in piece.gens)
            raise ImproperIntersectionError(
                f"cycle lies inside the level 1 stratum V({gens}); its transform vanishes"
            )
    for k, center in enumerate(strat.tower.steps, start=1):
        locus = Ideal(strat.base_ring, tuple(g.in_ring(strat.base_ring) for g in center))
        if cyc.variety_contained_in(locus):
            raise ImproperIntersectionError(
                f"cycle lies inside the center of blowup step {k}; its transform vanishes"
            )
    out = {}
    for chart in strat.tower.nonempty_leaves():
        moved = proper_transform(chart, cyc)
        if not moved.is_trivial():
            out[chart.name] = moved
    return out


def _is_complete_intersection(ideal: Ideal) -> bool:
    # multiplicities are read off local lengths, which is only honest when
    # at least one factor is cut by codimension many equations
    gb = ideal.groebner()
    d = ideal.dimension_or_none()
    if d is None:
        return True
    c = ideal.ring.nvars - d
    if len(gb) <= c:
        return True
    reduced = Ideal(ideal.ring, gb)
    for subset in combinations(gb, c):
        if Ideal(ideal.ring, subset).canonical_key() == reduced.canonical_key():
            return True
    return False


def intersect_on_chart(chart: Chart, left: Ideal, right: Ideal) -> list[PrimaryComponent]:
    """Zero-dimensional intersection of two transforms on one chart.

    Multiplicity of a point is the local length of the two cycles' sum
    inside the chart's coordinate ring of the resolved space.  The chart
    must be smooth at every intersection point.
    """
    meet = left.plus(right).plus(chart.relations)
    d = meet.dimension_or_none()
    if d is None:
        return []
    if d > 0:
        raise ImproperIntersectionError(
            f"intersection on chart {chart.name} has dimension {d}, expected points"
        )
    if not (_is_complete_intersection(left) or _is_complete_intersection(right)):
        raise CompleteIntersectionError(
            f"neither cycle on chart {chart.name} is cut by codimension many "
            "equations; multiplicities would be unreliable"
        )
    sing = singular_locus(chart.relations)
    components = zero_dim_decompose(meet)
    for pc in components:
        if pc.prime.variety_contained_in(sing):
            raise SmoothnessError(
                f"intersection point on chart {chart.name} sits where the chart is singular"
            )
    return components


def pushforward(
    strat: Stratification, chart_components: dict[str, list[PrimaryComponent]]
) -> dict:
    """Image zero cycle on the base, merged over charts by ownership.

    A point with residue degree e over a base point of residue degree f
    contributes multiplicity times e / f to that base point.
    """
    base = strat.base_ring
    charts = {c.name: c for c in strat.tower.leaves}
    merged: dict[tuple, dict] = {}
    upstairs = 0
    for name, components in chart_components.items():
        chart = charts[name]
        for pc in components:
            if not chart.owns(pc.prime):
                continue
            # the image of a closed point is a closed point: already maximal
            image = blowdown_image(chart, pc.prime, base)
            residue_degree = image.vector_space_dimension()
            assert pc.residue_degree % residue_degree == 0
            relative = pc.residue_degree // residue_degree
            prime = Ideal(base, image.groebner())
            entry = merged.setdefault(
                prime.canonical_key(),
                {"prime": prime, "residue_degree": residue_degree, "multiplicity": 0},
            )
            entry["multiplicity"] += pc.multiplicity * relative
            upstairs += pc.multiplicity * pc.residue_degree
    points = sorted(merged.values(), key=lambda e: e["prime"].canonical_key())
    degree = sum(e["multiplicity"] * e["residue_degree"] for e in points)
    return {"points": points, "degree": degree, "upstairs_degree": upstairs}


def direct_degree(strat: Stratification, left: Ideal, right: Ideal) -> int | None:
    """Naive length of the intersection downstairs, when it is finite.

    None signals a positive-dimensional overlap, where no length exists.
    """
    meet = left.in_ring(strat.base_ring).plus(right.in_ring(strat.base_ring))
    meet = meet.plus(strat.variety)
    d = meet.dimension_or_none()
    if d is None:
        return 0
    if d > 0:
        return None
    return meet.vector_space_dimension()


def pair(
    a: Cycle,
    b: Cycle,
    strat: Stratification,
    allow_noncomplementary: bool = False,
    check_perversity: bool = True,
) -> dict:
    """Intersection number of two cycles through the tower.

    Perversities must be complementary unless explicitly waived, and each
    cycle must satisfy its own perversity against the stratification.
    """
    if a.perversity is None or b.perversity is None:
        raise PerversityError("both cycles need perversities to pair")
    complementary = a.perversity.is_complementary_to(b.perversity)
    if not complementary and not allow_noncomplementary:
        raise ComplementarityError(
            f"perversities ({a.perversity}) and ({b.perversity}) are not complementary"
        )
    reports = {}
    if check_perversity:
        for cyc in (a, b):
            report = perversity_check(cyc.ideal, strat, cyc.perversity)
            reports[cyc.name] = report
            if not report["ok"]:
                raise PerversityError(
                    f"cycle {cyc.name!r} violates perversity ({cyc.perversity})"
                )
    left = transform_cycle(strat, a.ideal)
    right = transform_cycle(strat, b.ideal)
    chart_components = {}
    for chart in strat.tower.nonempty_leaves():
        if chart.name not in left or chart.name not in right:
            continue
        components = intersect_on_chart(chart, left[chart.name], right[chart.name])
        if components:
            chart_components[chart.name] = components
    pushed = pushforward(strat, chart_components)
    scale = a.mult * b.mult
    points = []
    for entry in pushed["points"]:
        scaled = dict(entry)
        scaled["multiplicity"] *= scale
        points.append(scaled)
    direct = direct_degree(strat, a.ideal, b.ideal)
    return {
        "a": a.name,
        "b": b.name,
        "complementary": complementary,
        "perversity_reports": reports,
        "charts": chart_components,
        "points": points,
        "degree": pushed["degree"] * scale,
        "upstairs_degree": pushed["upstairs_degree"] * scale,
        "direct_degree": None if direct is None else direct * scale,
        "method": "local length on smooth charts",
    }


VERDICTS = ("CONSISTENT", "DEGREE_ONLY", "INCONSISTENT", "FAMILY_REJECTED")


def _signature(points: list[dict]) -> tuple:
    return tuple(
        (e["prime"].canonical_key(), e["multiplicity"], e["residue_degree"])
        for e in points
    )


def audit(
    cycle: Cycle,
    family: CycleFamily,
    strat: Stratification,
    mode: str = "strong",
    allow_noncomplementary: bool = False,
    allow_nonstandard: bool = False,
) -> dict:
    """Pair a cycle against every marked member of a family and compare.

    Verdicts: CONSISTENT when the pushed zero cycles agree point by point,
    DEGREE_ONLY when only the total degrees agree, INCONSISTENT when even
    those differ, FAMILY_REJECTED when the family fails its perversity
    check and the comparison never runs.
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"audit mode is weak or strong, got {mode!r}")
    if cycle.perversity is None or family.perversity is None:
        raise PerversityError("audit needs perversities on the cycle and the family")
    if len(family.marked) < 2:
        raise ValueError("auditing needs at least two marked values to compare")
    for name, p in ((cycle.name, cycle.perversity), (family.name, family.perversity)):
        if not p.is_standard() and not allow_nonstandard:
            raise PerversityError(
                f"perversity ({p}) on {name!r} is not standard; waive explicitly to proceed"
            )
    complementary = cycle.perversity.is_complementary_to(family.perversity)
    if not complementary and not allow_noncomplementary:
        raise ComplementarityError(
            f"perversities ({cycle.perversity}) and ({family.perversity}) are not complementary"
        )
    if mode == "strong":
        family_check = strong_family_check(family, strat)
    else:
        family_check = weak_family_check(family, strat)
    result = {
        "cycle": cycle.name,
        "family": family.name,
        "mode": mode,
        "complementary": complementary,
        "family_check": family_check,
    }
    if not family_check["ok"]:
        result["verdict"] = "FAMILY_REJECTED"
        result["values"] = []
        return result
    cycle_report = perversity_check(cycle.ideal, strat, cycle.perversity)
    result["cycle_check"] = cycle_report
    if not cycle_report["ok"]:
        raise PerversityError(
            f"cycle {cycle.name!r} violates perversity ({cycle.perversity})"
        )
    values = []
    for c in family.marked:
        member = Cycle(f"{family.name}@{c}", family.fiber(c), family.perversity)
        report = pair(
            cycle, member, strat,
            allow_noncomplementary=True, check_perversity=False,
        )
        values.append({"value": c, "degree": report["degree"], "points": report["points"]})
    result["values"] = values
    signatures = [_signature(v["points"]) for v in values]
    degrees = [v["degree"] for v in values]
    if all(s == signatures[0] for s in signatures):
        result["verdict"] = "CONSISTENT"
    elif all(d == degrees[0] for d in degrees):
        result["verdict"] = "DEGREE_ONLY"
    else:
        result["verdict"] = "INCONSISTENT"
    if result["verdict"] != "CONSISTENT":
        # the specialization-vs-transform discrepancies are what broke it
        result["error_terms"] = [error_terms(family, strat, c) for c in family.marked]
    return result


def compare_towers(
    a: Cycle,
    b: Cycle,
    strats: Sequence[Stratification],
    allow_noncomplementary: bool = False,
) -> dict:
    """Pair the same cycles through nested towers and compare the answers.

    One tower must refine the other: each pair of step lists has to agree
    on the shorter one's length.  Agreement means the pushed zero cycles
    match point by point, not just in degree.
    """
    if len(strats) < 2:
        raise ValueError("comparing towers needs at least two of them")
    histories = [
        [tuple(str(g) for g in step) for step in strat.tower.steps]
        for strat in strats
    ]
    for later in histories[1:]:
        short, long = sorted((histories[0], later), key=len)
        if long[: len(short)] != short:
            raise ValueError(
                "towers do not refine one another: their blowup steps diverge"
            )
    reports = [
        pair(a, b, strat, allow_noncomplementary=allow_noncomplementary)
        for strat in strats
    ]
    degrees = [r["degree"] for r in reports]
    signatures = [_signature(r["points"]) for r in reports]
    return {
        "a": a.name,
        "b": b.name,
        "reports": reports,
        "degrees": degrees,
        "agree": all(s == signatures[0] for s in signatures),
    }
