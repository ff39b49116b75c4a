"""Blowup towers over a hypersurface: charts, lineage, ownership, images.

A tower starts from one affine chart (or one chart per projective patch) and
grows by blowing up centers written in the input coordinates. Each blowup
step turns every current leaf chart into one chart per center generator
("pivot"). Generators that are affine-linear in a variable not used by the
pivot are solved away: the variable is replaced by a ratio variable (named
by appending p), keeping chart rings small. Unsolvable generators keep an
explicit graph relation with a fresh ratio variable instead.

Charts remember their full lineage, along which proper_transform moves
cycles, families and each next center up the tower step by step; their
accumulated ownership constraints (a point on a chart overlap is owned by
the first chart that sees it; ownership means all earlier-pivot ratio
coordinates vanish); and bindings that express the input coordinates in
chart variables, which is what blowdown images and pushforwards use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .errors import CenterError
from .geometry import dehomogenize, singular_locus
from .ideals import Ideal, fresh_name
from .polyring import Polynomial, PolynomialRing


@dataclass(frozen=True)
class LineageStep:
    """What one blowup step did to one chart."""

    ring: PolynomialRing
    substitution: tuple[tuple[str, Polynomial], ...]  # eliminated variable -> value
    graph: tuple[Polynomial, ...]  # relations kept for unsolvable generators
    exceptional: Polynomial | None  # None for a pass-through step

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
    living on the base times a line).
    """
    origin = dict(chart.origin_binding)
    ring0 = next(iter(origin.values())).ring
    for n in extra:
        if n in chart.ring.names or n in ring0.names:
            raise ValueError(f"passenger variable {n!r} collides with a chart variable")
    cur = PolynomialRing(ring0.names + extra) if extra else ring0
    start = dict(origin)
    if extra:
        start = {k: v.in_ring(cur) for k, v in origin.items()}
    current = Ideal(cur, (g.substitute(start, cur) for g in ideal.gens))
    for step in chart.lineage:
        if step.exceptional is None:
            continue
        target = PolynomialRing(step.ring.names + extra) if extra else step.ring
        if current.is_trivial():
            current = Ideal(target, (target.one(),))
            continue
        move = {k: v.in_ring(target) for k, v in step.substitution_map().items()}
        moved = tuple(g.substitute(move, target) for g in current.gens)
        moved += tuple(g.in_ring(target) for g in step.graph)
        current = Ideal(target, moved).saturate(step.exceptional.in_ring(target))
    return current


def _ratio_name(base: str, taken: set[str]) -> str:
    name = base + "p"
    while name in taken:
        name += "p"
    return name


def _pivot_chart(
    leaf: Chart, center: tuple[Polynomial, ...], pivot: int, label: str
) -> Chart:
    ring = leaf.ring
    gens = [g for g in center]
    subs: dict[str, Polynomial] = {}
    ratio: dict[int, Polynomial] = {}
    protected: set[str] = set()
    unsolved: list[int] = []

    for j in range(len(gens)):
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
        gens = [p.substitute(move, new_ring) for p in gens]
        subs = {k: v.substitute(move, new_ring) for k, v in subs.items()}
        ratio = {k: v.in_ring(new_ring) for k, v in ratio.items()}
        subs[vname] = value
        protected.add(uname)
        ratio[j] = new_ring.var(uname)
        ring = new_ring

    for j in unsolved:
        rname = fresh_name(set(ring.names) | protected, f"r{label.lstrip('s')}_{j}")
        new_ring = PolynomialRing(ring.names + (rname,), ring.order)
        gens = [p.in_ring(new_ring) for p in gens]
        subs = {k: v.in_ring(new_ring) for k, v in subs.items()}
        ratio = {k: v.in_ring(new_ring) for k, v in ratio.items()}
        ratio[j] = new_ring.var(rname)
        protected.add(rname)
        ring = new_ring

    def carry(p: Polynomial) -> Polynomial:
        return p.substitute(subs, ring)

    exceptional = gens[pivot]
    graph_new = tuple(gens[j] - ratio[j] * exceptional for j in unsolved)
    total = [carry(g) for g in leaf.relations.gens]
    total.extend(graph_new)
    relations = Ideal(ring, tuple(total)).saturate(exceptional)
    ownership_new = tuple(ratio[j] for j in sorted(ratio) if j < pivot)
    step = LineageStep(
        ring=ring,
        substitution=tuple(sorted(subs.items())),
        graph=graph_new,
        exceptional=exceptional,
    )
    return Chart(
        name=f"{leaf.name}/{label}p{pivot}",
        ring=ring,
        relations=relations,
        base_binding=tuple((n, carry(v)) for n, v in leaf.base_binding),
        ownership=tuple(carry(w) for w in leaf.ownership) + ownership_new,
        exceptionals=tuple(carry(e) for e in leaf.exceptionals) + (exceptional,),
        lineage=leaf.lineage + (step,),
        origin_binding=leaf.origin_binding,
    )


def _pass_through(leaf: Chart) -> Chart:
    step = LineageStep(ring=leaf.ring, substitution=(), graph=(), exceptional=None)
    return replace(leaf, lineage=leaf.lineage + (step,))


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
        label = f"s{len(self.steps) + 1}"
        ideal = Ideal(self.input_ring, center)
        new_leaves: list[Chart] = []
        for leaf in self.leaves:
            transformed = proper_transform(leaf, ideal)
            if transformed.is_trivial():
                new_leaves.append(_pass_through(leaf))
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
                chart = _pivot_chart(leaf, gb, pivot, label)
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
        return all(
            singular_locus(c.relations).is_trivial() for c in self.nonempty_leaves()
        )

    def audit(self) -> dict:
        """Structural invariants; informative, not fatal."""
        report: dict = {
            "leaves": len(self.leaves),
            "nonempty_leaves": len(self.nonempty_leaves()),
            "steps": len(self.steps),
            "all_charts_smooth": self.all_smooth(),
        }
        if not self.projective:
            base = Ideal(self.input_ring, self.input_relations)
            if base.is_zero():
                sing = Ideal(self.input_ring, (self.input_ring.one(),))
            else:
                sing = singular_locus(base)
            over_singular = True
            for leaf in self.nonempty_leaves():
                for e in leaf.exceptionals:
                    img = blowdown_image(
                        leaf, leaf.relations.plus([e]), self.input_ring
                    )
                    if img.is_trivial():
                        continue
                    if not img.variety_contained_in(sing):
                        over_singular = False
            report["exceptional_over_singular"] = over_singular
        return report
