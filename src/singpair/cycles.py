"""Cycles against a stratification: perversity bookkeeping and families.

A cycle of dimension a satisfies the perversity condition p at codimension
i when dim(cycle meet piece) <= a - i + p_i for every piece entering at
level i.  A one-parameter family is a cycle over the base with one extra
coordinate; specializing the parameter and transforming do not commute in
general, and the discrepancy components are the family's error terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .blowup import blowdown_image, proper_transform
from .errors import PerversityError
from .factor import factor
from .ideals import Ideal
from .polyring import _coefficient
from .strata import Stratification, split_components


def _parameter_value(value) -> Fraction:
    """value as a Fraction; TypeError for a float or any other value that is
    not an int or a Fraction, as for a polynomial coefficient."""
    return Fraction(_coefficient(value))


@dataclass(frozen=True)
class Perversity:
    """Integer weights indexed by codimension, starting at 1."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise PerversityError("a perversity needs at least one entry")
        for v in self.values:
            if not isinstance(v, int) or v < 0:
                raise PerversityError(f"perversity entries are nonnegative integers, got {v!r}")

    @staticmethod
    def zero(r: int) -> "Perversity":
        return Perversity((0,) * r)

    @staticmethod
    def top(r: int) -> "Perversity":
        """The largest standard perversity, i - 1 at codimension i."""
        return Perversity(tuple(range(r)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        # indexed by codimension, 1-based
        if not 1 <= i <= len(self.values):
            raise IndexError(f"codimension {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    def is_standard(self) -> bool:
        """Zero at codimension 1, nondecreasing, unit steps, below the top."""
        vals = self.values
        if vals[0] != 0:
            return False
        for i in range(1, len(vals)):
            if not vals[i - 1] <= vals[i] <= vals[i - 1] + 1:
                return False
        return all(v <= i for i, v in enumerate(vals))

    def complement(self) -> "Perversity":
        out = tuple(i - v for i, v in enumerate(self.values))
        if any(v < 0 for v in out):
            raise PerversityError(f"perversity {self} exceeds the top perversity; no complement")
        return Perversity(out)

    def is_complementary_to(self, other: "Perversity") -> bool:
        if len(other) != len(self):
            return False
        return all(p + q == i for i, (p, q) in enumerate(zip(self.values, other.values)))


@dataclass(frozen=True)
class Cycle:
    name: str
    ideal: Ideal
    perversity: Perversity | None = None
    mult: int = 1

    def __post_init__(self) -> None:
        if self.mult < 1:
            raise ValueError("cycle multiplicity must be a positive integer")


@dataclass(frozen=True)
class CycleFamily:
    """A cycle over the base with one distinguished parameter coordinate.

    total lives in the base ring extended by the parameter; fiber(c) cuts
    the parameter at c and projects back down to the base coordinates.
    Marked values and c are ints or Fractions, stored as Fractions; a float
    raises TypeError, since it is not exact.
    """

    name: str
    total: Ideal
    param: str
    marked: tuple[Fraction, ...] = ()
    perversity: Perversity | None = None

    def __post_init__(self) -> None:
        if self.param not in self.total.ring.names:
            raise ValueError(f"parameter {self.param!r} is not a variable of {self.total.ring}")
        object.__setattr__(self, "marked", tuple(map(_parameter_value, self.marked)))

    def fiber(self, value) -> Ideal:
        cut = self.total.ring.var(self.param) - _parameter_value(value)
        return self.total.plus([cut]).eliminate({self.param})


def perversity_check(ideal: Ideal, strat: Stratification, perversity: Perversity) -> dict:
    """Test dim(cycle meet piece) <= a - i + p_i against every piece.

    Dimensions follow the stratification's convention, so projective input
    is measured projectively.  An empty cycle passes vacuously.
    """
    if len(perversity) != strat.top:
        raise PerversityError(
            f"perversity has {len(perversity)} entries for a depth {strat.top} stratification"
        )
    cyc = ideal.in_ring(strat.base_ring)
    a = strat.dim_of(cyc)
    if a is None:
        return {"cycle_dimension": None, "ok": True, "entries": []}
    entries = []
    ok = True
    for i in range(1, strat.top + 1):
        bound = a - i + perversity[i]
        for piece in strat.level(i):
            d = strat.dim_of(cyc.plus(piece))
            good = d is None or d <= bound
            ok = ok and good
            entries.append(
                {
                    "codim": i,
                    "piece": piece,
                    "intersection_dimension": d,
                    "bound": bound,
                    "ok": good,
                }
            )
    return {"cycle_dimension": a, "ok": ok, "entries": entries}


def minimal_perversity(ideal: Ideal, strat: Stratification) -> Perversity | None:
    """The smallest standard perversity the cycle satisfies, or None.

    None means no standard perversity works: the cycle sits too deep in the
    filtration (meeting some level-i piece forces more than i - 1 excess).
    """
    cyc = ideal.in_ring(strat.base_ring)
    a = strat.dim_of(cyc)
    if a is None:
        return Perversity.zero(strat.top)
    unmet = -(strat.top + abs(a) + 2)
    need = [unmet] * strat.top
    for i in range(1, strat.top + 1):
        for piece in strat.level(i):
            d = strat.dim_of(cyc.plus(piece))
            if d is not None:
                need[i - 1] = max(need[i - 1], d - a + i)
    # smallest dominating sequence with unit steps; entry j must absorb the
    # demand at every deeper level i, discounted by the i - j steps available
    entries = []
    for j in range(1, strat.top + 1):
        entries.append(max(0, max(need[i - 1] - (i - j) for i in range(j, strat.top + 1))))
    if entries[0] > 0:
        return None
    for j in range(1, len(entries)):
        entries[j] = max(entries[j], entries[j - 1])
    return Perversity(tuple(entries))


def _family_perversity(family: CycleFamily, perversity: Perversity | None) -> Perversity:
    p = perversity if perversity is not None else family.perversity
    if p is None:
        raise PerversityError(f"family {family.name!r} carries no perversity")
    return p


def _require_affine(strat: Stratification, what: str) -> None:
    if strat.tower.projective:
        raise ValueError(f"{what} works on affine towers; dehomogenize first")


def weak_family_check(
    family: CycleFamily, strat: Stratification, perversity: Perversity | None = None
) -> dict:
    """Check each marked fiber separately, at its own dimension."""
    p = _family_perversity(family, perversity)
    _require_affine(strat, "the weak family check")
    fibers = []
    ok = True
    for value in family.marked:
        report = perversity_check(family.fiber(value), strat, p)
        ok = ok and report["ok"]
        fibers.append({"value": value, "report": report})
    return {"mode": "weak", "ok": ok, "fibers": fibers}


def strong_family_check(
    family: CycleFamily, strat: Stratification, perversity: Perversity | None = None
) -> dict:
    """Check every fiber at once, with the generic fiber dimension.

    Over each stratum piece the parameter values where the family meets it
    are cut out by an eliminant in the parameter alone.  A zero eliminant
    means the piece is hit over every value; then the generic fiber loses
    one dimension against the total.  Otherwise the eliminant is factored
    once: the roots of its linear factors are checked one by one and its
    higher degree factors in bulk.
    Special candidates, roots and marked values alike, are shared across
    all pieces.
    """
    p = _family_perversity(family, perversity)
    _require_affine(strat, "the strong family check")
    total = family.total
    dtot = total.dimension_or_none()
    if dtot is None:
        return {"mode": "strong", "ok": True, "family_dimension": None,
                "special_values": [], "entries": []}
    a = dtot - 1
    param = family.param
    others = set(total.ring.names) - {param}

    candidates = set(family.marked)
    staged = []
    for i in range(1, strat.top + 1):
        bound = a - i + p[i]
        for piece in strat.level(i):
            h = total.plus(g.in_ring(total.ring) for g in piece.gens)
            if h.dimension_or_none() is None:
                staged.append({"codim": i, "piece": piece, "bound": bound,
                               "dominates": False, "checks": [], "h": None})
                continue
            eliminant = h.eliminate(others).groebner()
            entry = {"codim": i, "piece": piece, "bound": bound, "checks": [], "h": h}
            if not eliminant:
                entry["dominates"] = True
                generic = h.dimension_or_none() - 1
                entry["checks"].append(
                    {"at": "generic", "dim": generic, "ok": generic <= bound}
                )
            else:
                entry["dominates"] = False
                _, factors = factor(eliminant[0])
                for q, _m in factors:
                    if q.degree_in(param) == 1:
                        # monic and linear: q = param - root
                        candidates.add((q.ring.var(param) - q).constant_value())
                        continue
                    d = h.plus([q.in_ring(total.ring)]).dimension_or_none()
                    good = d is None or d <= bound
                    entry["checks"].append({"at": str(q), "dim": d, "ok": good})
            staged.append(entry)

    special = sorted(candidates)
    ok = True
    for entry in staged:
        h = entry.pop("h")
        if h is None:
            continue
        for value in special:
            cut = total.ring.var(param) - value
            d = h.plus([cut]).dimension_or_none()
            if d is None:
                continue
            good = d <= entry["bound"]
            entry["checks"].append({"at": value, "dim": d, "ok": good})
        entry["ok"] = all(c["ok"] for c in entry["checks"])
        ok = ok and entry["ok"]
    return {"mode": "strong", "ok": ok, "family_dimension": a,
            "special_values": special, "entries": staged}


@dataclass(frozen=True)
class ErrorComponent:
    """A specialization component the specialized cycle does not explain."""

    chart: str
    ideal: Ideal
    image: Ideal
    over_x1: bool
    owned: bool


def error_terms(family: CycleFamily, strat: Stratification, value) -> dict:
    """Components of (transform then specialize) minus (specialize then transform).

    Both orders are computed on every chart; components present in the
    first and missing from the second are the error terms at this value.
    Each one is blown down and tested against the level 1 strata, and
    marked owned on the one chart whose ownership constraints it meets.
    """
    _require_affine(strat, "error term extraction")
    value = _parameter_value(value)
    tower = strat.tower
    base = strat.base_ring
    param = family.param
    fiber_down = family.fiber(value).in_ring(base)
    x1 = strat.level(1)

    matched = []
    components = []
    for chart in tower.nonempty_leaves():
        lifted = proper_transform(chart, family.total, extra=(param,))
        cut = lifted.ring.var(param) - value
        specialized = lifted.plus([cut]).eliminate({param}).in_ring(chart.ring)
        direct = proper_transform(chart, fiber_down)
        direct_keys = {c.canonical_key() for c in split_components(direct)}
        for part in split_components(specialized):
            if part.canonical_key() in direct_keys:
                matched.append((chart.name, part))
                continue
            image = blowdown_image(chart, part, base)
            over = any(image.variety_contained_in(piece) for piece in x1)
            components.append(
                ErrorComponent(
                    chart=chart.name,
                    ideal=part,
                    image=image,
                    over_x1=over,
                    owned=chart.owns(part),
                )
            )
    return {
        "value": value,
        "components": components,
        "owned_components": [c for c in components if c.owned],
        "matched": matched,
        "all_over_x1": all(c.over_x1 for c in components),
    }
