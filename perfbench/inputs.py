"""Seeded inputs for the benchmark workloads.

Seed 0 gives the inputs exactly as written.  Any other seed shuffles the
generator order inside every `;` list that names an ideal in a corpus
scenario (relations, centers, cycle generators, family totals), and, for
the Groebner systems, permutes the ring variables and the generator order,
afresh for every pass (the cost of a system depends strongly on its
variable order, so a run's median then covers many orders, not one).
None of these changes the ideals, so every expected answer stays the same.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

CORPUS_MIX = (
    "affine_quadric_cone",
    "fourfold_cone",
    "nodal_image",
    "projective_closure",
    "smooth_blowup_plane",
)
TOWER_EXTENSION = ("tower_extension",)

# name -> (family, n, Krull dimension, vector-space dimension or None)
SYSTEMS = {
    "cyclic-4": ("cyclic", 4, 1, None),
    "cyclic-5": ("cyclic", 5, 0, 70),
    "katsura-3": ("katsura", 3, 0, 8),
    "katsura-4": ("katsura", 4, 0, 16),
    "katsura-5": ("katsura", 5, 0, 32),
}

_IDEAL_FIELD = re.compile(r"(\b(?:relations|center|gens|total)\s*=\s*)([^|#]*?)(\s*(?:[|#]|$))")


def shuffle_scenario(text: str, rng: random.Random) -> str:
    """Shuffle the generators of every ideal-valued field, line by line."""

    def shuffle(match: re.Match) -> str:
        parts = [p.strip() for p in match.group(2).split(";") if p.strip()]
        rng.shuffle(parts)
        return match.group(1) + "; ".join(parts) + match.group(3)

    out = []
    for line in text.splitlines():
        if not line.lstrip().startswith("#"):
            line = _IDEAL_FIELD.sub(shuffle, line)
        out.append(line)
    return "\n".join(out) + "\n"


def scenario_texts(corpus_dir: Path, names: tuple[str, ...], seed: int) -> dict[str, str]:
    """Scenario name -> scenario text for this seed."""
    rng = random.Random(seed)
    texts = {}
    for name in names:
        text = (corpus_dir / f"{name}.scn").read_text()
        texts[name] = text if seed == 0 else shuffle_scenario(text, rng)
    return texts


def _cyclic(ring, names: list[str]) -> list:
    n = len(names)
    x = [ring.var(v) for v in names]
    gens = []
    for k in range(1, n):
        total = ring.zero()
        for i in range(n):
            term = ring.one()
            for j in range(k):
                term = term * x[(i + j) % n]
            total = total + term
        gens.append(total)
    prod = ring.one()
    for v in x:
        prod = prod * v
    gens.append(prod - 1)
    return gens


def _katsura(ring, names: list[str]) -> list:
    n = len(names) - 1
    u = [ring.var(v) for v in names]

    def at(k: int):
        return u[abs(k)] if abs(k) <= n else ring.zero()

    first = ring.zero()
    for l in range(-n, n + 1):
        first = first + at(l)
    gens = [first - 1]
    for m in range(n):
        total = ring.zero()
        for l in range(-n, n + 1):
            total = total + at(l) * at(m - l)
        gens.append(total - at(m))
    return gens


def variables(name: str) -> list[str]:
    """The variables of a system in their seed-0 order: x0.. or u0..."""
    family, n, _, _ = SYSTEMS[name]
    return [f"x{i}" for i in range(n)] if family == "cyclic" else [f"u{i}" for i in range(n + 1)]


def systems(singpair, seed: int, draw: int = 0) -> dict[str, tuple]:
    """System name -> (ring, generators) for this seed and pass number.

    The variables are x0.. for cyclic-n and u0.. for katsura-n; a nonzero
    seed permutes their order in the ring (and so in grevlex) and the
    order of the generators, differently for each `draw`.
    """
    rng = random.Random(f"{seed}.{draw}")
    out = {}
    for name, (family, _, _, _) in SYSTEMS.items():
        names = variables(name)
        order = list(names)
        if seed != 0:
            rng.shuffle(order)
        ring = singpair.PolynomialRing(tuple(order))
        gens = (_cyclic if family == "cyclic" else _katsura)(ring, names)
        if seed != 0:
            rng.shuffle(gens)
        out[name] = (ring, gens)
    return out
