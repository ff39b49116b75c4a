"""Resolution-induced stratifications.

A stratification of the input variety X is a descending chain
X = X^0 >= X^1 >= ... >= X^r of closed subsets, stored as lists of component
ideals in the input coordinates. Pieces are produced by named rules applied
to a blowup tower; every piece enters the chain at its own codimension in X
and propagates to all shallower levels by nesting. Pieces whose zero set is
contained in another piece at the same level are absorbed.

Rules:

  images           center images, plus the loci over which the exceptional
                   divisor E -> C of a step is not flat or branches: where
                   the leading coefficient, in a new ratio variable, of a
                   chart eliminant over the base vanishes on the center.
                   There the fiber dimension may jump, but the fibers may
                   also stay finite and change. On the Whitney umbrella
                   x^2 = t*y^2 blown up along its double line the fibers
                   are two points over t != 0 and one double point over
                   the pinch point t = 0, and the pinch point is flagged.
                   Such a locus is a proper closed subset of its center,
                   so it is sought only over centers of positive
                   dimension: over a point nothing smaller is left, and no
                   elimination is run.
  fibers           degeneration loci of the quadratic cone transverse to a
                   coordinate-like center (rank drop of the induced form)
  singular_images  singular loci of the center images, and pairwise
                   intersections of distinct center images
  components       post-pass: split every collected piece into the visibly
                   irreducible components of its generators

PRESETS names rule tuples for the two recurring shapes: curves of
singularities on a threefold, and cones appearing in one higher dimension;
pass one as `rules`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import Chart, ResolutionTower, graph_ideal
from .errors import CompleteIntersectionError, EmptyVarietyError, FactorScopeError
from .factor import factor
from .geometry import center_quadratic_form, quadric_rank_drop, singular_locus
from .ideals import Ideal
from .polyring import Polynomial

PRESETS = {
    "curve_recipe": ("images", "singular_images", "components"),
    "fourfold_recipe": ("images", "fibers", "components"),
}

RULES = ("images", "fibers", "singular_images", "components")

SPLIT_LIMIT = 64


def split_components(ideal: Ideal) -> list[Ideal]:
    """Split an ideal by factoring generators; same zero set, more pieces.

    Not a primary decomposition. A generator that factors turns the ideal
    into one branch per irreducible factor (multiplicities dropped, so each
    branch is closer to radical). Branches are reduced, deduplicated, and
    pieces contained in another piece are removed. On scope overflow, or past
    SPLIT_LIMIT branches, the ideal is returned unsplit.
    """
    if ideal.is_trivial():
        return []
    done: list[Ideal] = []
    queue = [ideal]
    while queue:
        if len(queue) + len(done) > SPLIT_LIMIT:
            return [ideal]
        current = queue.pop()
        gb = current.groebner()
        split = None
        for g in gb:
            try:
                _, factors = factor(g, relax_scope=True)
            except FactorScopeError:
                continue
            if len(factors) > 1 or (factors and factors[0][1] > 1):
                split = (g, [p for p, _ in factors])
                break
        if split is None:
            done.append(Ideal(current.ring, gb))
            continue
        g, parts = split
        rest = tuple(h for h in gb if h != g)
        for p in parts:
            branch = Ideal(current.ring, rest + (p,))
            if not branch.is_trivial():
                queue.append(branch)
    unique: dict = {}
    for piece in done:
        unique.setdefault(piece.canonical_key(), piece)
    pieces = sorted(unique.values(), key=lambda p: str(p.canonical_key()))
    kept: list[Ideal] = []
    for p in pieces:
        absorbed = False
        for q in pieces:
            if q.canonical_key() == p.canonical_key():
                continue
            if p.variety_contained_in(q) and not q.variety_contained_in(p):
                absorbed = True
                break
        if not absorbed:
            kept.append(p)
    return kept


@dataclass(frozen=True)
class StratumPiece:
    ideal: Ideal
    level: int  # codimension in X at which the piece enters
    rule: str
    step: int | None = None  # blowup step the piece came from, if any
    note: str = ""


class Stratification:
    def __init__(
        self,
        tower: ResolutionTower,
        rules: tuple[str, ...] = ("images",),
        user_pieces: tuple[Ideal, ...] = (),
    ) -> None:
        for rule in rules:
            if rule not in RULES:
                raise ValueError(f"unknown rule {rule!r}; have {RULES}")
        self.tower = tower
        self.rules = tuple(rules)
        self.base_ring = tower.input_ring
        self.warnings: list[str] = []
        self.pieces: list[StratumPiece] = []
        self._variety = Ideal(self.base_ring, tower.input_relations)
        # one Ideal per center, so each center's Groebner basis is computed once
        self._centers = [Ideal(self.base_ring, center) for center in tower.steps]
        dim = self._dim(self._variety)
        if dim is None:
            raise EmptyVarietyError("input variety is empty")
        self.top = dim
        self._build(user_pieces)

    # -- dimension bookkeeping -------------------------------------------------

    def _dim(self, ideal: Ideal) -> int | None:
        d = ideal.dimension_or_none()
        if d is None:
            return None
        if self.tower.projective:
            d -= 1
            if d < 0:
                return None
        return d

    # -- assembly ---------------------------------------------------------------

    def _add(self, ideal: Ideal, rule: str, step: int | None = None, note: str = "") -> None:
        reduced = Ideal(ideal.ring, ideal.groebner())
        if reduced.is_trivial():
            return
        d = self._dim(reduced)
        if d is None:
            return
        level = self.top - d
        if level < 1:
            self.warnings.append(
                f"piece from rule {rule} has codimension {level}; clamped to 1"
            )
            level = 1
        if level > self.top:
            self.warnings.append(
                f"piece from rule {rule} has codimension {level}; clamped to {self.top}"
            )
            level = self.top
        self.pieces.append(StratumPiece(reduced, level, rule, step, note))

    def _build(self, user_pieces: tuple[Ideal, ...]) -> None:
        self._seed()
        for rule in self.rules:
            if rule == "images":
                self._rule_images()
            elif rule == "fibers":
                self._rule_fibers()
            elif rule == "singular_images":
                self._rule_singular_images()
        for ideal in user_pieces:
            if not ideal.variety_contained_in(self._variety):
                self.warnings.append(
                    f"user piece {[str(g) for g in ideal.gens]} does not lie on the variety"
                )
            self._add(ideal, "annotation")
        if "components" in self.rules:
            refined: list[StratumPiece] = []
            for piece in self.pieces:
                parts = split_components(piece.ideal)
                if len(parts) == 1 and parts[0].canonical_key() == piece.ideal.canonical_key():
                    refined.append(piece)
                    continue
                for part in parts:
                    d = self._dim(part)
                    if d is None:
                        continue
                    level = min(max(self.top - d, 1), self.top)
                    refined.append(
                        StratumPiece(part, level, piece.rule, piece.step, "component")
                    )
            self.pieces = refined
        self.levels: dict[int, list[Ideal]] = {
            i: self._minimal(i) for i in range(1, self.top + 1)
        }

    def _minimal(self, level: int) -> list[Ideal]:
        cands: dict = {}
        for piece in self.pieces:
            if piece.level >= level:
                cands.setdefault(piece.ideal.canonical_key(), piece.ideal)
        pieces = sorted(cands.values(), key=lambda p: str(p.canonical_key()))
        kept: list[Ideal] = []
        for p in pieces:
            absorbed = False
            for q in pieces:
                if q.canonical_key() == p.canonical_key():
                    continue
                if p.variety_contained_in(q):
                    if q.variety_contained_in(p) and str(q.canonical_key()) > str(
                        p.canonical_key()
                    ):
                        continue
                    absorbed = True
                    break
            if not absorbed:
                kept.append(p)
        return kept

    # -- rules -------------------------------------------------------------------

    def _seed(self) -> None:
        try:
            sing = singular_locus(self._variety)
        except CompleteIntersectionError:
            self.warnings.append(
                "no complete-intersection presentation for the input variety; "
                "skipping the singular-locus seed"
            )
            return
        for part in split_components(sing):
            self._add(part, "seed")

    def _rule_images(self) -> None:
        for s, center in enumerate(self._centers):
            self._add(center, "images", step=s)
        for s, candidate in self._jump_candidates():
            self._add(candidate, "images", step=s, note="fiber jump")

    def _rule_fibers(self) -> None:
        if len(self.tower.input_relations) != 1:
            self.warnings.append(
                "fibers rule needs a single defining equation; skipped"
            )
            return
        f = self.tower.input_relations[0]
        for s in range(len(self.tower.steps)):
            gens = self.tower.steps[s]
            matrix = center_quadratic_form(f, gens)
            if matrix is None:
                continue
            det = quadric_rank_drop(matrix, self.base_ring)
            if det.is_constant():
                continue
            self._add(
                self._centers[s].plus([det]), "fibers", step=s, note="rank drop"
            )

    def _rule_singular_images(self) -> None:
        n = len(self._centers)
        for s, center in enumerate(self._centers):
            try:
                sing = singular_locus(center)
            except CompleteIntersectionError:
                self.warnings.append(
                    f"center of step {s + 1} has no complete-intersection "
                    "presentation; skipping its singular locus"
                )
                continue
            if not sing.is_trivial():
                self._add(sing, "singular_images", step=s, note="singular center image")
        for s in range(n):
            for u in range(s + 1, n):
                meet = self._centers[s].plus(self._centers[u])
                self._add(meet, "singular_images", step=s, note=f"meets step {u + 1}")

    # -- fiber-dimension jump candidates ------------------------------------------

    def _new_variables_by_step(self, chart: Chart) -> dict[str, int]:
        base_names = {n for n, _ in chart.base_binding}
        out: dict[str, int] = {}
        prev: set = set()
        for k, step in enumerate(chart.lineage):
            names = set(step.ring.names)
            fresh = names - prev - base_names if k == 0 else names - prev
            for n in fresh:
                out[n] = k
            prev = names
        # a later pivot can solve an earlier ratio variable away entirely
        return {n: k for n, k in out.items() if n in chart.ring.names}

    def _jump_candidates(self) -> list[tuple[int, Ideal]]:
        """(step, locus) pairs over which E -> C is not flat or branches.

        A candidate is the center plus a leading coefficient, so it lies in
        the center, and it is kept only when its dimension is below the
        center's. Over a center of dimension 0 or less no candidate can be
        kept, so the ratio variables of such a step are never eliminated.
        """
        found: dict = {}
        base = self.base_ring
        center_dims = [self._dim(center) for center in self._centers]
        for chart in self.tower.nonempty_leaves():
            var_step = {
                v: s
                for v, s in self._new_variables_by_step(chart).items()
                if center_dims[s] is not None and center_dims[s] > 0
            }
            if not var_step:
                continue
            graph, rename = graph_ideal(chart, chart.relations.gens, base)
            for v, s in sorted(var_step.items()):
                drop_vars = set(chart.ring.names) - {v}
                elim = graph.eliminate(drop_vars)
                for g in elim.gens:
                    d = g.degree_in(v)
                    if d < 1:
                        continue
                    lc = self._leading_coefficient_in(g, v)
                    if lc.is_constant():
                        continue
                    lc_base = lc.substitute(rename, base)
                    candidate = self._centers[s].plus([lc_base])
                    key = candidate.canonical_key()
                    if key in found:
                        continue
                    d = self._dim(candidate)
                    if d is not None and d < center_dims[s]:
                        found[key] = (s, candidate)
        return sorted(found.values(), key=lambda t: (t[0], str(t[1].canonical_key())))

    @staticmethod
    def _leading_coefficient_in(g: Polynomial, name: str) -> Polynomial:
        ring = g.ring
        i = ring.index(name)
        d = max(e[i] for e in g.terms)
        # terms of top degree in name differ outside position i, so none collide
        return Polynomial(
            ring, {(*e[:i], 0, *e[i + 1 :]): c for e, c in g.terms.items() if e[i] == d}
        )

    # -- access --------------------------------------------------------------------

    @property
    def variety(self) -> Ideal:
        return self._variety

    def dim_of(self, ideal: Ideal) -> int | None:
        """Dimension in the same convention as the stratification levels."""
        return self._dim(ideal)

    def level(self, i: int) -> list[Ideal]:
        if i <= 0:
            return [self._variety]
        if i > self.top:
            return []
        return self.levels[i]

    def describe(self) -> dict:
        return {
            "top_dimension": self.top,
            "rules": list(self.rules),
            "levels": {
                str(i): [[str(g) for g in ideal.gens] for ideal in self.levels[i]]
                for i in range(1, self.top + 1)
            },
            "pieces": [
                {
                    "level": p.level,
                    "rule": p.rule,
                    "step": None if p.step is None else p.step + 1,
                    "note": p.note,
                    "generators": [str(g) for g in p.ideal.gens],
                }
                for p in self.pieces
            ],
            "warnings": list(self.warnings),
        }
