"""Intersection numbers through the tower, and audits of the induced pairing.

Both cycles are moved to the leaf charts by proper transform, intersected
where the resolved space is smooth, and the resulting zero cycle is pushed
back to the base with residue degree bookkeeping.  Ownership constraints
keep each intersection point from being counted once per chart that sees it.
A leaf is skipped when the two transforms meet nowhere on a chart it was
made from: a pivot chart's relations and transforms contain the pull-backs
of its parent chart's, so its meet is empty too, and an empty meet gives no
point and no error on any chart.

A blowup is an isomorphism off its center (Fulton, Intersection Theory,
App. B.6). So when one transform misses a step's center on the parent
chart, the two transforms meet on a pivot chart of the step exactly where
they meet on the parent and the pivot generator does not vanish, with the
same local rings. Such a chart takes the parent's rational points, moved
to its coordinates, without Groebner work; the parent's own points are
computed once per pairing, or carried from further up, and each chart
intersection is kept in the run memo. A leaf whose parent has an
irrational point, whose parent's intersection raises, or whose step's
center both transforms meet, intersects on its own ring, and so raises the
error it raises alone; a carried leaf with a point still runs the
complete-intersection guard.

The audit replays the pairing against every marked value of a family and
reports whether the answers agree: on the nose, in degree only, or not at
all.  A family that fails its perversity check is rejected outright.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .blowup import Chart, blowdown_image, misses_center, proper_transform
from .cycles import (
    Cycle,
    CycleFamily,
    error_terms,
    perversity_check,
    strong_family_check,
    weak_family_check,
)
from .errors import (
    BudgetExceededError,
    ComplementarityError,
    CompleteIntersectionError,
    ImproperIntersectionError,
    PerversityError,
    SingpairError,
    SmoothnessError,
)
from .geometry import (
    PrimaryComponent,
    point_component,
    singular_locus,
    sort_components,
    zero_dim_decompose,
)
from .ideals import Ideal, remembered
from .polyring import _quotient
from .strata import Stratification


def transform_cycle(strat: Stratification, ideal: Ideal) -> dict[str, Ideal]:
    """Proper transform of a cycle on every chart where it survives.

    A cycle inside a level 1 stratum or inside a blowup center would be
    erased by the saturation, so those cases are refused instead of
    silently dropped.
    """
    cyc = _transformable(strat, ideal)
    out = {}
    for chart in strat.tower.nonempty_leaves():
        moved = proper_transform(chart, cyc)
        if not moved.is_trivial():
            out[chart.name] = moved
    return out


def _transformable(strat: Stratification, ideal: Ideal) -> Ideal:
    """The cycle in the base ring, refused when its transform would vanish."""
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
    return cyc


def _meet(chart: Chart, left: Ideal, right: Ideal) -> Ideal:
    # one generator order for the meets on leaves and on the charts above
    # them, so that the run memo gives a prefix tower's leaf meets to the
    # longer tower's pruning
    return left.plus(right).plus(chart.relations)


def _empty_meet_above(
    chart: Chart, left: Ideal, right: Ideal, verdicts: dict[int, bool]
) -> bool:
    """Whether the proper transforms of left and right meet nowhere on
    chart or on a chart it was made from. A pivot chart maps into its
    parent chart, and its relations and both transforms contain the
    pull-backs of the parent's (Fulton, Intersection Theory, App. B.6), so
    an empty meet on the parent is an empty meet on the chart. verdicts
    keeps the answers by chart id."""
    key = id(chart)
    if key not in verdicts:
        parent = chart.parent
        if parent is not None and _empty_meet_above(parent, left, right, verdicts):
            verdicts[key] = True
        else:
            moved = (proper_transform(chart, left), proper_transform(chart, right))
            verdicts[key] = _meet(chart, *moved).is_trivial()
    return verdicts[key]


def _met_leaves(strat: Stratification, left: Ideal, right: Ideal) -> list[Chart]:
    """The nonempty leaves below no chart where the transforms of the base
    ideals left and right have an empty meet: the others have an empty
    meet themselves."""
    verdicts: dict[int, bool] = {}
    return [
        chart
        for chart in strat.tower.nonempty_leaves()
        if chart.parent is None or not _empty_meet_above(chart.parent, left, right, verdicts)
    ]


def _is_complete_intersection(ideal: Ideal) -> bool:
    # whether the ideal is cut by codimension many equations. Multiplicities
    # are read off local lengths, and this guard asks it of one factor only.
    # That is necessary but not enough: a local length is the intersection
    # multiplicity only when both local rings are Cohen-Macaulay at the
    # point (Serre's Tor formula), so a non-Cohen-Macaulay other factor is
    # overcounted
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


def _require_complete_intersection(chart: Chart, left: Ideal, right: Ideal) -> None:
    if not (_is_complete_intersection(left) or _is_complete_intersection(right)):
        raise CompleteIntersectionError(
            f"neither cycle on chart {chart.name} is cut by codimension many "
            "equations; multiplicities would be unreliable"
        )


def intersect_on_chart(chart: Chart, left: Ideal, right: Ideal) -> list[PrimaryComponent]:
    """Zero-dimensional intersection of two transforms on one chart.

    Multiplicity of a point is the local length of the two cycles' sum
    inside the chart's coordinate ring of the resolved space.  The chart
    must be smooth at every intersection point.
    """
    meet = _meet(chart, left, right)
    d = meet.dimension_or_none()
    if d is None:
        return []
    if d > 0:
        raise ImproperIntersectionError(
            f"intersection on chart {chart.name} has dimension {d}, expected points"
        )
    _require_complete_intersection(chart, left, right)
    sing = singular_locus(chart.relations)
    components = zero_dim_decompose(meet)
    for pc in components:
        # pc.prime is maximal, so its point lies on V(sing) exactly when
        # every generator of sing is in pc.prime
        if all(pc.prime.contains(g) for g in sing.gens):
            raise SmoothnessError(
                f"intersection point on chart {chart.name} sits where the chart is singular"
            )
    return components


def _intersect(chart: Chart, left: Ideal, right: Ideal) -> list[PrimaryComponent]:
    """intersect_on_chart, once per run memo for equal charts and transforms."""
    key = ("intersect", chart.ring, chart.relations.gens, left.gens, right.gens)
    return remembered(key, intersect_on_chart, chart, left, right)


def _points(
    chart: Chart, left: Ideal, right: Ideal, found: dict[int, list | None]
) -> list[PrimaryComponent] | None:
    """The components of the meet of the transforms of the base ideals left
    and right on chart, carried from its parent or intersected there; None
    when one is not a rational point or the intersection raises. found
    keeps the answers by chart id."""
    key = id(chart)
    if key not in found:
        try:
            components = _carried(chart, left, right, found)
            if components is None:
                moved = (proper_transform(chart, left), proper_transform(chart, right))
                components = _intersect(chart, *moved)
        except BudgetExceededError:
            raise
        except SingpairError:
            components = None
        if components is not None and any(pc.point is None for pc in components):
            components = None
        found[key] = components
    return found[key]


def _carried(
    chart: Chart, left: Ideal, right: Ideal, found: dict[int, list | None]
) -> list[PrimaryComponent] | None:
    """chart's components carried from its parent chart without Groebner
    work, or None when they cannot be.

    A pivot chart of step s is carried when one of the two transforms
    misses the center of s on the parent, so that the meet does, and every
    point of the parent's meet is rational. Off the center the blowup is an
    isomorphism (Fulton, Intersection Theory, App. B.6), so the chart's
    meet is the parent's where the pivot generator does not vanish, with
    the same local rings: each such point keeps its multiplicity and moves
    to the coordinates LineageStep names. Smoothness is inherited too, so
    no point needs the chart's singular locus.
    """
    parent = chart.parent
    if parent is None:
        return None
    if not (misses_center(chart, left) or misses_center(chart, right)):
        return None
    points = _points(parent, left, right, found)
    if points is None:
        return None
    step = chart.lineage[-1]
    ratios = dict(step.ratios)
    pivot = step.center[step.pivot]
    out = []
    for pc in points:
        scale = pivot.evaluate(pc.point)
        if not scale:
            continue
        point = {
            n: _quotient(step.center[ratios[n]].evaluate(pc.point), scale)
            if n in ratios
            else pc.point[n]
            for n in chart.ring.names
        }
        out.append(point_component(chart.ring, point, pc.multiplicity))
    return sort_components(out)


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
            # the image of a closed point is a closed point: already maximal.
            # A rational point's image is the base binding evaluated there
            if pc.point is None:
                image = blowdown_image(chart, pc.prime, base)
            else:
                image = Ideal(
                    base,
                    (base.var(n) - value.evaluate(pc.point) for n, value in chart.base_binding),
                )
            residue_degree = image.vector_space_dimension()
            if pc.residue_degree % residue_degree:
                raise AssertionError(
                    f"point of residue degree {pc.residue_degree} on chart {name} "
                    f"maps to a base point of residue degree {residue_degree}"
                )
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
    left = _transformable(strat, a.ideal)
    right = _transformable(strat, b.ideal)
    chart_components = {}
    found: dict[int, list | None] = {}
    for chart in _met_leaves(strat, left, right):
        moved_left = proper_transform(chart, left)
        if moved_left.is_trivial():
            continue
        moved_right = proper_transform(chart, right)
        if moved_right.is_trivial():
            continue
        components = _carried(chart, left, right, found)
        if components is None:
            components = _intersect(chart, moved_left, moved_right)
        elif components:
            _require_complete_intersection(chart, moved_left, moved_right)
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
    for first, second in combinations(histories, 2):
        short, long = sorted((first, second), key=len)
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
