"""Reference answers and the checks that compare a pass against them.

reference.json holds the seed-0 answers: every corpus task's status and
payload, and every system's reduced Groebner basis as exponent:coefficient
terms over x0.. or u0.. in order.

- A corpus task must finish with status "ok". The program sets that
  only when the scenario's own expect* fields hold.
- A corpus task's payload must equal the stored one, for every seed.
  Timing and step fields are not part of a payload. Payloads print
  reduced Groebner bases, so shuffling generators does not change them.
- A system must have its known dimension and root count.
- A system's basis must generate the stored ideal, for every seed.  The
  benchmark reduces each basis modulo the other with its own code, not
  the program's.
- For seed 0, a system's basis must also equal the stored basis exactly.

Run this file to rewrite reference.json from the current sources:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction
from pathlib import Path

from inputs import CORPUS_MIX, SYSTEMS, TOWER_EXTENSION, variables

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def _plain(obj):
    """JSON round trip, so tuples compare equal to stored lists."""
    return json.loads(json.dumps(obj))


def task_failures(scenario: str, report: dict, reference: dict) -> list[str]:
    """One message per task of a run_tasks report that misses its reference."""
    stored = reference["scenarios"][scenario]
    out = []
    if sorted(row["name"] for row in report["tasks"]) != sorted(stored):
        out.append(f"{scenario}: task list differs from the reference")
    for row in report["tasks"]:
        where = f"{scenario}/{row['name']}"
        if row["status"] != "ok":
            out.append(f"{where}: status {row['status']}")
        elif _plain(row["payload"]) != stored.get(row["name"], {}).get("payload"):
            out.append(f"{where}: payload differs from the reference")
    return out


def _terms(poly, names: list[str]) -> dict:
    """A program polynomial as {exponents in `names` order: coefficient}."""
    index = [poly.ring.names.index(n) for n in names]
    return {tuple(e[i] for i in index): c for e, c in poly.terms.items()}


def _poly_text(terms) -> str:
    """Terms as "e0 e1 ...:coefficient" joined by "; ", one line per polynomial."""
    return "; ".join(f"{' '.join(map(str, e))}:{c}" for e, c in sorted(terms))


def _stored_basis(name: str, reference: dict) -> list[dict]:
    """The stored basis as term dicts over the seed-0 variable order."""
    basis = []
    for text in reference["systems"][name]["basis"]:
        terms = (term.split(":") for term in text.split("; "))
        basis.append({tuple(map(int, e.split())): Fraction(c) for e, c in terms})
    return basis


def _grevlex(exps: tuple) -> tuple:
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _heap_key(exps: tuple) -> tuple:
    """Smallest for the grevlex-largest monomial, for a min-heap."""
    return (-sum(exps), exps[::-1], exps)


def _reduces_to_zero(f: dict, basis: list[dict]) -> bool:
    """Whether f lies in the ideal of `basis`, a grevlex Groebner basis over
    the same variable order.  Independent of the code under test."""
    lead = [(max(g, key=_grevlex), g) for g in basis]
    f = dict(f)
    heap = [_heap_key(e) for e in f]
    heapq.heapify(heap)
    while f:
        lm = heapq.heappop(heap)[2]
        if lm not in f:  # cancelled since it was pushed
            continue
        for lg, g in lead:
            if all(a >= b for a, b in zip(lm, lg)):
                scale = f[lm] / g[lg]
                for e, c in g.items():
                    e = tuple(a + b - d for a, b, d in zip(e, lm, lg))
                    old = f.get(e, 0)
                    value = old - scale * c
                    if value:
                        if not old:
                            heapq.heappush(heap, _heap_key(e))
                        f[e] = value
                    else:
                        del f[e]
                break
        else:
            return False
    return True


def system_failures(name: str, ring, basis, dimension, roots, seed: int,
                    reference: dict) -> list[str]:
    """A message for a system whose basis, dimension or root count is wrong."""
    _, _, want_dim, want_roots = SYSTEMS[name]
    names = variables(name)
    stored = _stored_basis(name, reference)
    mine = [_terms(g, names) for g in basis]
    out = []
    if dimension != want_dim:
        out.append(f"dimension {dimension}, expected {want_dim}")
    if roots != want_roots:
        out.append(f"{roots} roots, expected {want_roots}")
    if seed == 0 and mine != stored:
        out.append("basis differs from the reference")
    else:
        order = list(ring.names)
        in_order = [_terms(g, order) for g in basis]
        ref_in_order = [
            {tuple(e[names.index(n)] for n in order): c for e, c in g.items()} for g in stored
        ]
        if not (all(_reduces_to_zero(g, in_order) for g in ref_in_order)
                and all(_reduces_to_zero(g, stored) for g in mine)):
            out.append("basis generates another ideal than the reference")
    return [f"{name}: " + "; ".join(out)] if out else []


def main() -> None:
    import sys

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import singpair
    from singpair.cli import Flags, run_tasks

    from inputs import systems

    corpus = root / "src" / "singpair" / "corpus"
    scenarios = {}
    for name in CORPUS_MIX + TOWER_EXTENSION:
        report = run_tasks(singpair.parse_scenario(corpus / f"{name}.scn"), Flags())
        scenarios[name] = {
            row["name"]: {"status": row["status"], "payload": _plain(row["payload"])}
            for row in report["tasks"]
        }
    bases = {
        name: {"basis": [_poly_text(g.terms.items())
                         for g in singpair.Ideal(ring, gens).groebner()]}
        for name, (ring, gens) in systems(singpair, 0).items()
    }
    REFERENCE.write_text(
        json.dumps({"scenarios": scenarios, "systems": bases}, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
