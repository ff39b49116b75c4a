"""Blowup towers over a hypersurface: charts, lineage, ownership, images.

A tower starts from one affine chart (or one chart per projective patch) and
grows by blowing up centers written in the input coordinates. Each blowup
step turns every current leaf chart that meets the center into one chart
per center generator ("pivot"); a leaf that the center misses stays the
same chart, since a blowup is an isomorphism off its center (Fulton,
Intersection Theory, App. B.6). Generators that are affine-linear in a
variable not used by the pivot are solved away: the variable is replaced
by a ratio variable (named by appending p), keeping chart rings small.
Unsolvable generators keep an explicit graph relation with a fresh ratio
variable instead.

Charts remember their full lineage, along which proper_transform moves
cycles, families and each next center up the tower step by step; their
accumulated ownership constraints (a point on a chart overlap is owned by
the first chart that sees it; ownership means all earlier-pivot ratio
coordinates vanish); and bindings that express the input coordinates in
chart variables, which is what blowdown images and pushforwards use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import CenterError, CompleteIntersectionError
from .geometry import dehomogenize, singular_locus
from .ideals import Ideal, fresh_name, remembered
from .polyring import Polynomial, PolynomialRing


@dataclass(frozen=True)
class LineageStep:
    """What one blowup step did to one chart.

    step is the index in ResolutionTower.steps of the step that made the
    chart; along a lineage it strictly increases, and it skips the steps
    whose centers missed the chart.

    center is the reduced basis of the step's center on the parent chart,
    the chart the step started from; every pivot chart of the step shares
    it. It decides once for all of them whether a transported ideal I
    misses the center, that is, whether J + (e) is the unit ideal on a
    pivot chart, for J the pull-back of I with the graph relations and e
    the exceptional. The two questions have the same answer:

    - if I + C is the unit ideal on the parent, so is J + (e): a solved
      center generator becomes a unit times e, and an unsolved one g_j
      keeps its graph relation g_j - r_j*e, so J + (e) contains the
      pull-back of I + C;
    - if some point p lies in V(I) and V(C), its fiber in every pivot
      chart is the whole affine space of the ratio coordinates, on which
      J and e vanish, so J + (e) is not the unit ideal.

    Passenger variables change neither argument (Fulton, Intersection
    Theory, App. B.6).

    pivot is the index in center of the generator whose pull-back is the
    exceptional, and ratios maps each ratio variable of the step to the
    index j of its center generator: on the pivot chart r_j is
    center[j] / center[pivot], so center[j] - r_j * center[pivot] pulls
    back into the chart's relations. Every chart variable that is no ratio
    variable is a coordinate of the parent chart, so a point of the parent
    chart where center[pivot] does not vanish has one preimage on the
    chart: the same coordinates, and r_j = center[j] / center[pivot] there.
    """

    ring: PolynomialRing
    substitution: tuple[tuple[str, Polynomial], ...]  # eliminated variable -> value
    graph: tuple[Polynomial, ...]  # relations kept for unsolvable generators
    exceptional: Polynomial
    center: tuple[Polynomial, ...]
    pivot: int
    ratios: tuple[tuple[str, int], ...]  # ratio variable -> center index
    step: int

    def substitution_map(self) -> dict[str, Polynomial]:
        return dict(self.substitution)


@dataclass(frozen=True)
class Chart:
    name: str
    ring: PolynomialRing
    relations: Ideal  # the transformed variety, graph relations included
    base_binding: tuple[tuple[str, Polynomial], ...]  # input coordinate -> value
    ownership: tuple[Polynomial, ...]
    exceptionals: tuple[Polynomial, ...]  # per actual blowup, in this ring
    lineage: tuple[LineageStep, ...]
    # input coordinate -> value in the ring the chart started from, before any
    # blowup; identity for affine charts, coord -> 1 on a projective patch
    origin_binding: tuple[tuple[str, Polynomial], ...] = ()
    # the chart the last lineage step started from; None for a starting chart.
    # Left out of equality and hashing, so neither walks the chain.
    parent: "Chart | None" = field(default=None, compare=False, repr=False)

    def binding_map(self) -> dict[str, Polynomial]:
        return dict(self.base_binding)

    def pull_back(self, poly: Polynomial) -> Polynomial:
        """Express a polynomial in input coordinates on this chart."""
        return poly.substitute(self.binding_map(), self.ring)

    def owns(self, prime: Ideal) -> bool:
        """Whether this chart owns the point cut out by a prime ideal."""
        return all(prime.contains(w.in_ring(prime.ring)) for w in self.ownership)

    def is_empty(self) -> bool:
        return self.relations.is_trivial()


def graph_ideal(
    chart: Chart, gens: Iterable[Polynomial], base_ring: PolynomialRing
) -> tuple[Ideal, dict[str, Polynomial]]:
    """gens on the graph of the chart's map to the input coordinates.

    The ring is the chart ring with a tagged copy of every input coordinate
    adjoined, and each copy is bound to its chart expression. The tag is
    "_b_" unless a chart or input variable starts with it; then the first of
    "_b0_", "_b1_", ... that none starts with. Returned with the renaming
    that takes the tagged copies back to the input coordinates.
    """
    taken = chart.ring.names + base_ring.names
    tag, k = "_b_", 0
    while any(n.startswith(tag) for n in taken):
        tag, k = f"_b{k}_", k + 1
    work = PolynomialRing(chart.ring.names + tuple(tag + n for n in base_ring.names))
    binding = chart.binding_map()
    out = [g.in_ring(work) for g in gens]
    out.extend(work.var(tag + n) - binding[n].in_ring(work) for n in base_ring.names)
    rename = {tag + n: base_ring.var(n) for n in base_ring.names}
    return Ideal(work, out), rename


def blowdown_image(chart: Chart, ideal: Ideal, base_ring: PolynomialRing) -> Ideal:
    """Image of a chart-side ideal in the input coordinates.

    Standard graph construction: adjoin tagged copies of the input
    coordinates, bind them to the chart expressions, eliminate the chart
    variables.
    """
    graph, rename = graph_ideal(chart, ideal.gens, base_ring)
    projected = graph.eliminate(set(chart.ring.names))
    out = [g.substitute(rename, base_ring) for g in projected.gens]
    return Ideal(base_ring, tuple(out))


def proper_transform(
    chart: Chart, ideal: Ideal, extra: tuple[str, ...] = ()
) -> Ideal:
    """Transform an input-coordinate ideal onto a chart, step by step.

    Each blowup step rewrites the generators through the step's substitution,
    adds the step's graph relations, and saturates by the exceptional; this is
    how cycles, families and the centers of later blowups travel up the
    tower. Names in extra ride along unchanged (used for a family parameter
    living on the base times a line). Inside ideals.groebner_memo() each
    step is done once, so sibling charts and prefix towers share the steps
    of the lineage they share.
    """
    origin = dict(chart.origin_binding)
    ring0 = next(iter(origin.values())).ring
    for n in extra:
        if n in chart.ring.names or n in ring0.names:
            raise ValueError(f"passenger variable {n!r} collides with a chart variable")
    cur = PolynomialRing(ring0.names + extra) if extra else ring0
    if _is_identity(origin, ideal.ring, ring0):
        # as on every affine chart: substituting would only move exponents
        # by name, which in_ring does without expanding anything
        current = Ideal(cur, (g.in_ring(cur) for g in ideal.gens))
    else:
        start = {k: v.in_ring(cur) for k, v in origin.items()} if extra else origin
        current = Ideal(cur, (g.substitute(start, cur) for g in ideal.gens))
    for step in chart.lineage:
        key = ("transform", step, extra, current.gens)
        current = remembered(key, _transform_step, step, extra, current)
    return current


def _is_identity(
    binding: dict[str, Polynomial], source: PolynomialRing, target: PolynomialRing
) -> bool:
    """Whether binding sends names of source only, each to the variable of
    the same name in target: then substituting it is moving by name."""
    return all(
        n in source.names and n in target.names and v == target.var(n)
        for n, v in binding.items()
    )


def _transform_step(step: LineageStep, extra: tuple[str, ...], current: Ideal) -> Ideal:
    """One blowup step of proper_transform."""
    target = PolynomialRing(step.ring.names + extra) if extra else step.ring
    if current.is_trivial():
        return Ideal(target, (target.one(),))
    move = {k: v.in_ring(target) for k, v in step.substitution_map().items()}
    moved = tuple(g.substitute(move, target) for g in current.gens)
    moved += tuple(g.in_ring(target) for g in step.graph)
    return Ideal(target, moved).saturate(
        step.exceptional.in_ring(target), misses=lambda: _step_misses(step, current)
    )


def _step_misses(step: LineageStep, current: Ideal) -> bool:
    """_misses(current, step.center), asked once per run memo."""
    key = ("misses", step.center, current.ring, current.gens)
    return remembered(key, _misses, current, step.center)


def _misses(current: Ideal, center: tuple[Polynomial, ...]) -> bool:
    """Whether current + center is the unit ideal on the parent chart's
    ring (with current's passengers): see LineageStep."""
    return current.plus(g.in_ring(current.ring) for g in center).is_trivial()


def misses_center(chart: Chart, ideal: Ideal) -> bool:
    """Whether the proper transform of an input-coordinate ideal to the
    parent of a pivot chart misses the center of the step that made the
    chart: the answer that the step's pivot charts share, from the run
    memo when a strict transform already asked it."""
    return _step_misses(chart.lineage[-1], proper_transform(chart.parent, ideal))


def _ratio_name(base: str, taken: set[str]) -> str:
    name = base + "p"
    while name in taken:
        name += "p"
    return name


def _pivot_chart(
    leaf: Chart, center: tuple[Polynomial, ...], pivot: int, index: int
) -> Chart:
    ring = leaf.ring
    # generators still to be read: a solved one is dropped once solved
    gens = dict(enumerate(center))
    subs: dict[str, Polynomial] = {}
    ratio: dict[int, str] = {}  # center index -> ratio variable
    protected: set[str] = set()
    unsolved: list[int] = []

    for j in range(len(center)):
        if j == pivot:
            continue
        g = gens[j]
        chosen = None
        for name in ring.names:
            if name in protected or name not in g.variables_used():
                continue
            if g.degree_in(name) != 1:
                continue
            slope = g.differentiate(name)
            if not slope.is_constant():
                continue
            if name in gens[pivot].variables_used():
                continue
            chosen = (name, slope.constant_value())
            break
        if chosen is None:
            unsolved.append(j)
            continue
        vname, c = chosen
        uname = _ratio_name(vname, set(ring.names) | protected)
        new_names = tuple(uname if n == vname else n for n in ring.names)
        new_ring = PolynomialRing(new_names, ring.order)
        h = g - ring.var(vname) * c
        value = (new_ring.var(uname) * gens[pivot].in_ring(new_ring) - h.in_ring(new_ring)) * (
            Fraction(1) / c
        )
        move = {vname: value}
        del gens[j]
        gens = {k: p.substitute(move, new_ring) for k, p in gens.items()}
        subs = {k: v.substitute(move, new_ring) for k, v in subs.items()}
        subs[vname] = value
        protected.add(uname)
        ratio[j] = uname
        ring = new_ring

    for j in unsolved:
        rname = fresh_name(set(ring.names) | protected, f"r{index + 1}_{j}")
        new_ring = PolynomialRing(ring.names + (rname,), ring.order)
        gens = {k: p.in_ring(new_ring) for k, p in gens.items()}
        subs = {k: v.in_ring(new_ring) for k, v in subs.items()}
        ratio[j] = rname
        protected.add(rname)
        ring = new_ring

    def carry(p: Polynomial) -> Polynomial:
        return p.substitute(subs, ring)

    exceptional = gens[pivot]
    graph_new = tuple(gens[j] - ring.var(ratio[j]) * exceptional for j in unsolved)
    total = [carry(g) for g in leaf.relations.gens]
    total.extend(graph_new)
    relations = Ideal(ring, tuple(total)).saturate(exceptional)
    ownership_new = tuple(ring.var(ratio[j]) for j in sorted(ratio) if j < pivot)
    step = LineageStep(
        ring=ring,
        substitution=tuple(sorted(subs.items())),
        graph=graph_new,
        exceptional=exceptional,
        center=center,
        pivot=pivot,
        ratios=tuple((ratio[j], j) for j in sorted(ratio)),
        step=index,
    )
    return Chart(
        name=f"{leaf.name}/s{index + 1}p{pivot}",
        ring=ring,
        relations=relations,
        base_binding=tuple((n, carry(v)) for n, v in leaf.base_binding),
        ownership=tuple(carry(w) for w in leaf.ownership) + ownership_new,
        exceptionals=tuple(carry(e) for e in leaf.exceptionals) + (exceptional,),
        lineage=leaf.lineage + (step,),
        origin_binding=leaf.origin_binding,
        parent=leaf,
    )


def _smooth(chart: Chart, verdicts: dict[int, bool], traces: dict[int, bool]) -> bool:
    """Whether chart is smooth, by the rule of ResolutionTower.all_smooth;
    verdicts and traces keep the answers of the charts already decided.
    A chart whose own Jacobian test raises CompleteIntersectionError
    raises it here too, unless the rule has shown it smooth."""
    key = id(chart)
    if key in verdicts:
        return verdicts[key]
    parent = chart.parent
    if parent is None:
        verdict = singular_locus(chart.relations).is_trivial()
    else:
        try:
            shown = _smooth(parent, verdicts, traces) and _smooth_trace(
                parent, chart.lineage[-1].center, traces
            )
        except CompleteIntersectionError:
            shown = False  # the parent's own Jacobian test raised
        verdict = shown or singular_locus(chart.relations).is_trivial()
    verdicts[key] = verdict
    return verdict


def _smooth_trace(
    parent: Chart, center: tuple[Polynomial, ...], traces: dict[int, bool]
) -> bool:
    """Whether the center meets the parent chart in a smooth complete
    intersection, by the Jacobian criterion; False when it is no complete
    intersection."""
    key = id(parent)
    if key not in traces:
        try:
            traces[key] = singular_locus(parent.relations.plus(center)).is_trivial()
        except CompleteIntersectionError:
            traces[key] = False
    return traces[key]


class ResolutionTower:
    """A variety with a sequence of blowups, kept as a set of leaf charts."""

    def __init__(
        self,
        input_ring: PolynomialRing,
        input_relations: tuple[Polynomial, ...],
        leaves: list[Chart],
        projective: bool = False,
    ) -> None:
        self.input_ring = input_ring
        self.input_relations = input_relations
        self.leaves = leaves
        self.projective = projective
        self.steps: list[tuple[Polynomial, ...]] = []

    @staticmethod
    def affine(ring: PolynomialRing, relations: tuple[Polynomial, ...]) -> "ResolutionTower":
        identity = tuple((n, ring.var(n)) for n in ring.names)
        chart = Chart(
            name="aff",
            ring=ring,
            relations=Ideal(ring, relations),
            base_binding=identity,
            ownership=(),
            exceptionals=(),
            lineage=(),
            origin_binding=identity,
        )
        return ResolutionTower(ring, relations, [chart], projective=False)

    @staticmethod
    def projective(
        ring: PolynomialRing, relations: tuple[Polynomial, ...]
    ) -> "ResolutionTower":
        """One chart per coordinate patch; earlier coordinates own overlaps."""
        for g in relations:
            if not g.is_homogeneous():
                raise CenterError(f"projective relation {g} is not homogeneous")
        whole = Ideal(ring, relations)
        leaves = []
        for i, coord in enumerate(ring.names):
            patch = dehomogenize(whole, coord)
            patch_ring = patch.ring
            bound = tuple(
                (n, patch_ring.one() if n == coord else patch_ring.var(n))
                for n in ring.names
            )
            leaves.append(
                Chart(
                    name=f"{coord}=1",
                    ring=patch_ring,
                    relations=patch,
                    base_binding=bound,
                    ownership=tuple(patch_ring.var(n) for n in ring.names[:i]),
                    exceptionals=(),
                    lineage=(),
                    origin_binding=bound,
                )
            )
        return ResolutionTower(ring, relations, leaves, projective=True)

    def copy(self) -> "ResolutionTower":
        """A tower that can grow apart from this one; the frozen charts are shared."""
        tower = ResolutionTower(
            self.input_ring, self.input_relations, list(self.leaves), self.projective
        )
        tower.steps = list(self.steps)
        return tower

    def blow_up(self, center: tuple[Polynomial, ...]) -> None:
        index = len(self.steps)
        ideal = Ideal(self.input_ring, center)
        new_leaves: list[Chart] = []
        for leaf in self.leaves:
            transformed = proper_transform(leaf, ideal)
            if transformed.is_trivial():
                new_leaves.append(leaf)
                continue
            gb = transformed.groebner()
            expected = leaf.ring.nvars - len(gb)
            actual = transformed.dimension_or_none()
            if actual != expected:
                raise CenterError(
                    f"center on chart {leaf.name} is not a regular sequence: "
                    f"{len(gb)} generators but dimension {actual}"
                )
            for pivot in range(len(gb)):
                chart = _pivot_chart(leaf, gb, pivot, index)
                for f in self.input_relations:
                    if not chart.relations.contains(chart.pull_back(f)):
                        raise CenterError(
                            f"chart {chart.name} does not map into the input variety"
                        )
                new_leaves.append(chart)
        self.leaves = new_leaves
        self.steps.append(tuple(center))

    def nonempty_leaves(self) -> list[Chart]:
        return [c for c in self.leaves if not c.is_empty()]

    def all_smooth(self) -> bool:
        """Whether every nonempty leaf chart is smooth.

        A pivot chart's relations are the blowup of its parent chart along
        the trace of the step's center on it, the parent's relations plus
        LineageStep.center (Fulton, Intersection Theory, B.6.9), and the
        blowup of a smooth variety along a smooth center is smooth
        (Hartshorne, Algebraic Geometry, II.8.24). So a pivot chart is
        smooth when its parent is and the Jacobian criterion finds that
        trace smooth, asked once per parent for all its pivot charts. A
        starting chart, and a chart whose parent or trace is not shown
        smooth (a trace that is no complete intersection included), is
        decided by the Jacobian criterion on its own relations. The rule
        only ever shows a chart smooth, so the answer is the one that
        testing every leaf on its own relations gives.
        """
        verdicts: dict[int, bool] = {}  # id of a chart -> it is smooth
        traces: dict[int, bool] = {}  # id of a parent chart -> its trace is smooth
        return all(_smooth(c, verdicts, traces) for c in self.nonempty_leaves())

    def audit(self) -> dict:
        """Structural invariants; informative, not fatal.

        exceptional_over_singular says whether every exceptional divisor of
        an affine tower maps into the singular locus of the input. On every
        chart the generators of step s's center C_s are multiples of its
        exceptional modulo the chart relations, so that exceptional maps
        into V(C_s). A step whose V(C_s) lies in the singular locus settles
        all its exceptionals without a blowdown image; the images of the
        others are computed until one leaves the locus.
        """
        report: dict = {
            "leaves": len(self.leaves),
            "nonempty_leaves": len(self.nonempty_leaves()),
            "steps": len(self.steps),
            "all_charts_smooth": self.all_smooth(),
        }
        if not self.projective:
            report["exceptional_over_singular"] = self._exceptional_over_singular()
        return report

    def _exceptional_over_singular(self) -> bool:
        base = Ideal(self.input_ring, self.input_relations)
        if base.is_zero():
            sing = Ideal(self.input_ring, (self.input_ring.one(),))
        else:
            sing = singular_locus(base)
        settled: dict[int, bool] = {}  # step s -> V(C_s) lies in V(sing)
        for leaf in self.nonempty_leaves():
            for step, e in zip(leaf.lineage, leaf.exceptionals):
                s = step.step
                if s not in settled:
                    center = Ideal(self.input_ring, self.steps[s])
                    settled[s] = center.variety_contained_in(sing)
                if settled[s]:
                    continue
                img = blowdown_image(leaf, leaf.relations.plus([e]), self.input_ring)
                if not img.is_trivial() and not img.variety_contained_in(sing):
                    return False
        return True
