"""Closed-loop benchmark for singpair, driven through its public entry points.

    python3 perfbench/run.py --workload corpus_mix --seed 0 --seconds 30 --trace 0

The package is imported from the src/ directory next to perfbench/, never
from an installed copy.  One caller in one process runs passes of the
workload back to back for --seconds (at least one pass).

Workloads:
  corpus_mix        the five fast corpus scenarios, 26 tasks per pass
  tower_extension   the compare-towers corpus scenario, one slow pass
  groebner_systems  cyclic-4/5 and katsura-3/4/5 through Ideal.groebner()

With --trace 0 the last line reports the end-to-end metrics: medians over
passes, over set-ups for setup_s, and the first pass for reduction_steps.
Set-up and pass times are scaled for the host's speed drift by probe.py;
the raw times are printed too.  With --trace 1 the same untraced passes
run first, then as many traced passes; the last line reports the
per-layer metrics per traced pass and the tracing overhead, and the spans
go to perfbench/out/.  Every pass is checked against reference.json; the
last line is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import probe
import reference
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("corpus_mix", "tower_extension", "groebner_systems")
SETUPS = 11

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "reduction_steps": "count",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    start: float  # perf_counter
    wall_s: float
    steps: dict[str, int]  # scenario or system -> reduction steps
    answers: list  # (scenario, report) or (system, ring, basis, dimension, roots)


def _fresh_import():
    """Import singpair from ./src, dropping any copy already imported."""
    for name in [m for m in sys.modules if m == "singpair" or m.startswith("singpair.")]:
        del sys.modules[name]
    singpair = importlib.import_module("singpair")
    if SRC.resolve() not in Path(singpair.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported singpair from {singpair.__file__}, not ./src")
    return singpair, importlib.import_module("singpair.cli")


class Workload:
    """Generated inputs, one pass over them, and the checks of a pass."""

    def __init__(self, name: str, seed: int, ref: dict) -> None:
        self.name = name
        self.seed = seed
        self.ref = ref
        self._checked: dict[tuple, list[str]] = {}
        self._draws = 0  # Groebner passes made so far

    def setup(self) -> None:
        """Import the package, generate the seeded inputs, write and validate them."""
        self.singpair, self.cli = _fresh_import()
        if self.name == "groebner_systems":
            self.systems = inputs.systems(self.singpair, self.seed)
            return
        names = inputs.CORPUS_MIX if self.name == "corpus_mix" else inputs.TOWER_EXTENSION
        texts = inputs.scenario_texts(SRC / "singpair" / "corpus", names, self.seed)
        folder = OUT / f"inputs-{self.name}-{self.seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for name, text in texts.items():
            path = folder / f"{name}.scn"
            path.write_text(text)
            diags = self.singpair.validate_scenario(path)
            if diags:
                raise SystemExit(f"perfbench: generated {path} does not validate: "
                                 f"{diags[0].render(str(path))}")
            self.paths[name] = path

    def rewind(self) -> None:
        """Make the next passes repeat the inputs of the first ones."""
        self._draws = 0

    def run_pass(self, rec: tracer.Recorder | None = None) -> Pass:
        if self.name == "groebner_systems":
            return self._systems_pass(rec)
        flags = self.cli.Flags()
        t0 = time.perf_counter()
        answers = [
            (name, self.cli.run_tasks(self.singpair.parse_scenario(path), flags))
            for name, path in self.paths.items()
        ]
        wall = time.perf_counter() - t0
        steps = {name: sum(row["counters"]["reduction_steps"] for row in report["tasks"])
                 for name, report in answers}
        return Pass(t0, wall, steps, answers)

    def _systems_pass(self, rec: tracer.Recorder | None) -> Pass:
        sp = self.singpair
        systems = self.systems
        if self._draws:  # a fresh variable and generator order, made untimed
            fresh = inputs.systems(sp, self.seed, self._draws)
            systems = {name: fresh[name] for name in systems}
        self._draws += 1
        answers = []
        steps = {}
        t0 = time.perf_counter()
        for name, (ring, gens) in systems.items():
            if rec is not None:
                rec.next_task()
            ideal = sp.Ideal(ring, gens)
            with sp.reduction_budget(sp.DEFAULT_BUDGET) as meter:
                basis = ideal.groebner()
                dim = ideal.dimension_or_none()
                roots = ideal.vector_space_dimension() if dim == 0 else None
            steps[name] = meter.used
            answers.append((name, ring, basis, dim, roots))
        return Pass(t0, time.perf_counter() - t0, steps, answers)

    def check(self, done: Pass) -> tuple[int, list[str]]:
        """Operations attempted in a pass, and a message for each that failed."""
        if self.name == "groebner_systems":
            failures = []
            for name, ring, basis, dim, roots in done.answers:
                # passes with the same variable order compute the same answer;
                # check each distinct one once
                key = (name, ring.names, tuple(str(g) for g in basis), dim, roots)
                if key not in self._checked:
                    self._checked[key] = reference.system_failures(
                        name, ring, basis, dim, roots, self.seed, self.ref)
                failures += self._checked[key]
            return len(done.answers), failures
        attempted, failures = 0, []
        for name, report in done.answers:
            attempted += len(report["tasks"])
            failures += reference.task_failures(name, report, self.ref)
        return attempted, failures


def run_loop(work: Workload, seconds: float) -> list[Pass]:
    """Passes back to back for `seconds`: at least one, and a further pass
    only while one more as long as the longest so far still ends in time.
    Garbage from the previous pass is collected before each, untimed."""
    start = time.perf_counter()
    done: list[Pass] = []
    while not done or time.perf_counter() - start + max(p.wall_s for p in done) <= seconds:
        gc.collect()
        done.append(work.run_pass())
    return done


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singpair" / "__init__.py").is_file():
        print(f"perfbench: no singpair sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = Workload(args.workload, args.seed, reference.load())
    setups = []  # (start, raw seconds)
    with probe.Probe() as speed:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            work.setup()
            setups.append((t0, time.perf_counter() - t0))
            gc.collect()  # drop the previous import, so peak_rss_mb measures one copy
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}", flush=True)
        passes = run_loop(work, args.seconds)
    setup_scaled = [speed.scaled(t0, t0 + raw) for t0, raw in setups]
    scaled = [speed.scaled(p.start, p.start + p.wall_s) for p in passes]
    wall = statistics.median(p.wall_s for p in passes)
    print("pass wall_s raw " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print("pass wall_s scaled " + " ".join(f"{s:.3f}" for s in scaled))
    print(f"setup_s raw {statistics.median(raw for _, raw in setups):.4f} "
          f"probes {len(speed.starts)} kernel median "
          f"{statistics.median(e - s for s, e in zip(speed.starts, speed.ends)) * 1e3:.3f} ms")
    print("steps " + " ".join(f"{name}={n}" for name, n in passes[0].steps.items()))
    if args.trace:
        rec = tracer.Recorder()
        rec.install(work.singpair)
        work.rewind()
        try:
            traced = [work.run_pass(rec) for _ in passes]
        finally:
            rec.uninstall()
        rec.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = rec.layer_metrics(len(traced))
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics["trace.overhead_s"] = traced_wall - wall
        print(f"wall_s untraced {wall:.4f} traced {traced_wall:.4f}")
        tracer.print_table(metrics)
        units = tracer.layer_metric_units()
        report = {name: _metric(metrics[name], unit) for name, unit in units.items()}
        passes += traced
    else:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": statistics.median(scaled),
            # the first pass: Groebner passes differ in variable order, and
            # the number of passes in a run varies with the host's speed
            "reduction_steps": sum(passes[0].steps.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        for name, m in report.items():
            print(f"{name:16} {m['value']:>14.6g} {m['unit']}")

    attempted, failures = 0, []
    for done in passes:  # checked after tracing, so the checks add to no counter
        n, failed = work.check(done)
        attempted += n
        failures += failed
    for msg in dict.fromkeys(failures):
        print(f"FAILED {msg}")
    print(f"passes {len(passes)} attempted {attempted} failed {len(failures)} "
          f"failed_frac {len(failures) / attempted:.4g}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
