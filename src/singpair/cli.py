"""Command-line front end: run scenario files and report the results.

Subcommands: run (all tasks), validate (no computation), and stratify /
pair / audit / compare-towers, which run only the tasks of that kind.
Exit codes: 0 all tasks succeeded and every audit matched its expected
verdict, 1 a task failed or missed an expectation, 2 the scenario file
could not be read or did not validate, 3 a reduction budget ran out.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .cycles import ErrorComponent, Perversity, minimal_perversity, perversity_check
from .errors import BudgetExceededError, PerversityError, ScenarioError, SingpairError
from .geometry import PrimaryComponent, projective_rational_points
from .ideals import DEFAULT_BUDGET, Ideal, groebner_memo, reduction_budget
from .pairing import audit, compare_towers, pair, transform_cycle
from .polyring import Polynomial
from .scenario import Scenario, Task, Workspace, parse_scenario, validate_scenario

SUBCOMMANDS = ("run", "validate", "stratify", "pair", "audit", "compare-towers")


@dataclass
class Flags:
    budget: int = DEFAULT_BUDGET
    allow_nonstandard: bool = False
    strict_complementarity: bool = False


# -- serialization ----------------------------------------------------------------


def jsonable(obj):
    """Reports to plain JSON types; polynomials in the canonical grammar."""
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else str(obj)
    if isinstance(obj, Polynomial):
        return str(obj)
    if isinstance(obj, Ideal):
        return [str(g) for g in obj.gens]
    if isinstance(obj, Perversity):
        return str(obj)
    if isinstance(obj, PrimaryComponent):
        return {
            "prime": jsonable(obj.prime),
            "multiplicity": obj.multiplicity,
            "residue_degree": obj.residue_degree,
            "point": jsonable(obj.point),
        }
    if isinstance(obj, ErrorComponent):
        return {
            "chart": obj.chart,
            "ideal": jsonable(obj.ideal),
            "image": jsonable(obj.image),
            "over_x1": obj.over_x1,
            "owned": obj.owned,
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


def format_point(coords: tuple[Fraction, ...]) -> str:
    return "[" + ":".join(str(c) for c in coords) + "]"


# -- task execution ---------------------------------------------------------------


def _cycle(ws: Workspace, name: str):
    return ws.scenario.cycles[name]


def _expect(payload: dict, key: str, got, want) -> dict:
    """The payload, or an Expectation carrying it with payload[key] = want
    when got misses want; want None sets no expectation."""
    if want is not None and got != want:
        payload[key] = want
        raise Expectation(payload)
    return payload


def _run_stratify(ws: Workspace, task: Task, flags: Flags) -> dict:
    return ws.strat(task.args["strat"]).describe()


def _run_check(ws: Workspace, task: Task, flags: Flags) -> dict:
    cycle = _cycle(ws, task.args["cycle"])
    if cycle.perversity is None:
        raise PerversityError(f"cycle {cycle.name!r} carries no perversity to check")
    strat = ws.strat(task.args["strat"])
    report = perversity_check(cycle.ideal, strat, cycle.perversity)
    report["cycle"] = cycle.name
    report["perversity"] = cycle.perversity
    return _expect(report, "expected", "pass" if report["ok"] else "fail", task.args["expect"])


def _run_minimal(ws: Workspace, task: Task, flags: Flags) -> dict:
    cycle = _cycle(ws, task.args["cycle"])
    strat = ws.strat(task.args["strat"])
    p = minimal_perversity(cycle.ideal, strat)
    payload = {"cycle": cycle.name, "perversity": None if p is None else str(p)}
    return _expect(payload, "expected", payload["perversity"] or "none", task.args.get("expect"))


def _run_transform(ws: Workspace, task: Task, flags: Flags) -> dict:
    cycle = _cycle(ws, task.args["cycle"])
    strat = ws.strat(task.args["strat"])
    moved = transform_cycle(strat, cycle.ideal)
    return {"cycle": cycle.name, "charts": moved}


def _run_pair(ws: Workspace, task: Task, flags: Flags) -> dict:
    a = _cycle(ws, task.args["a"])
    b = _cycle(ws, task.args["b"])
    strat = ws.strat(task.args["strat"])
    allow = task.args["allow_noncomplementary"] and not flags.strict_complementarity
    report = pair(a, b, strat, allow_noncomplementary=allow)
    return _expect(report, "expected_degree", report["degree"], task.args.get("expect_degree"))


def _run_audit(ws: Workspace, task: Task, flags: Flags) -> dict:
    cycle = _cycle(ws, task.args["cycle"])
    family = ws.scenario.families[task.args["family"]]
    strat = ws.strat(task.args["strat"])
    allow_nc = task.args["allow_noncomplementary"] and not flags.strict_complementarity
    allow_ns = task.args["allow_nonstandard"] or flags.allow_nonstandard
    report = audit(
        cycle, family, strat,
        mode=task.args["mode"],
        allow_noncomplementary=allow_nc,
        allow_nonstandard=allow_ns,
    )
    report["expected"] = task.args["expect"]
    return _expect(report, "expected", report["verdict"], report["expected"])


def _run_compare(ws: Workspace, task: Task, flags: Flags) -> dict:
    a = _cycle(ws, task.args["a"])
    b = _cycle(ws, task.args["b"])
    prefix = task.args["prefix"]
    allow = task.args["allow_noncomplementary"] and not flags.strict_complementarity
    short = ws.ad_hoc_strat(task.args["rules"], prefix=prefix)
    full = ws.ad_hoc_strat(task.args["rules"])
    report = compare_towers(a, b, [short, full], allow_noncomplementary=allow)
    payload = {
        "a": a.name,
        "b": b.name,
        "towers": [prefix, len(ws.scenario.steps)],
        "degrees": report["degrees"],
        "agree": report["agree"],
        "points": [r["points"] for r in report["reports"]],
    }
    return _expect(payload, "expected_agree", payload["agree"], task.args.get("expect_agree"))


def _run_incidence(ws: Workspace, task: Task, flags: Flags) -> dict:
    sc = ws.scenario
    a = _cycle(ws, task.args["a"])
    b = _cycle(ws, task.args["b"])
    meet = a.ideal.plus(b.ideal).plus(sc.relations)
    irrelevant = Ideal(sc.ring, tuple(sc.ring.var(n) for n in sc.ring.names))
    saturated = meet.saturate_ideal(irrelevant)
    found = [] if saturated.is_trivial() else projective_rational_points(saturated.gens)
    points = [format_point(p) for p in found]
    payload = {
        "a": a.name,
        "b": b.name,
        "saturated": saturated,
        "points": points,
        "empty": not points,
    }
    want = task.args.get("expect")
    if want is not None:
        want = [format_point(p) for p in want]
    return _expect(payload, "expected", points, want)


def _run_audit_tower(ws: Workspace, task: Task, flags: Flags) -> dict:
    payload = ws.tower().audit()
    return _expect(payload, "expected_smooth", payload["all_charts_smooth"],
                   task.args.get("expect_smooth"))


_RUNNERS = {
    "stratify": _run_stratify,
    "check": _run_check,
    "minimal": _run_minimal,
    "transform": _run_transform,
    "pair": _run_pair,
    "audit": _run_audit,
    "compare-towers": _run_compare,
    "incidence": _run_incidence,
    "audit-tower": _run_audit_tower,
}


class Expectation(Exception):
    """A task computed fine but the result missed its expected value."""

    def __init__(self, payload: dict) -> None:
        super().__init__("expectation not met")
        self.payload = payload


def _error_kind(exc: SingpairError) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def _task_row(ws: Workspace, task: Task, flags: Flags) -> dict:
    """One task's report row, under its own reduction budget."""
    t0 = time.monotonic()
    status = "ok"
    payload: dict = {"kind": task.kind}
    try:
        with reduction_budget(flags.budget) as meter:
            payload.update(_RUNNERS[task.kind](ws, task, flags))
            used = meter.used
    except Expectation as e:
        payload.update(e.payload)
        status = "error:expectation"
        used = meter.used
    except BudgetExceededError as e:
        payload["message"] = str(e)
        status = "error:budget"
        used = meter.used
    except SingpairError as e:
        payload["message"] = str(e)
        status = f"error:{_error_kind(e)}"
        used = meter.used
    except ValueError as e:
        payload["message"] = str(e)
        status = "error:value"
        used = meter.used
    return {
        "name": task.name,
        "status": status,
        "payload": jsonable(payload),
        "counters": {"reduction_steps": used},
        "ms": int((time.monotonic() - t0) * 1000),
    }


def run_tasks(scenario: Scenario, flags: Flags, kind: str | None = None) -> dict:
    """Execute the scenario's tasks in order, or only those of one kind,
    and assemble the report.

    Each reduced basis, factorization and strict-transform step is
    computed once per run (groebner_memo): the workspace's charts,
    prefixes and tasks ask for many equal ideals, factor the same
    polynomials and move cycles up lineages that sibling charts share. A
    basis already computed is charged to the first task that asked;
    factorizations charge no step, and a remembered step's bases are
    remembered too, so neither changes a task's step count."""
    ws = Workspace(scenario)
    started = time.monotonic()
    with groebner_memo():
        rows = [_task_row(ws, task, flags) for task in scenario.tasks
                if kind is None or task.kind == kind]
    return {
        "scenario": scenario.name,
        "version": __version__,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
        "tasks": rows,
    }


def exit_code(report: dict) -> int:
    statuses = [row["status"] for row in report["tasks"]]
    if any(s == "error:budget" for s in statuses):
        return 3
    if any(s != "ok" for s in statuses):
        return 1
    return 0


# -- entry point --------------------------------------------------------------------


def _summary(row: dict) -> str:
    p = row["payload"]
    kind = p.get("kind")
    if row["status"] != "ok" and "message" in p:
        return p["message"]
    if kind == "stratify":
        return f"top={p.get('top_dimension')} pieces={len(p.get('pieces', []))}"
    if kind == "check":
        return f"ok={p.get('ok')}"
    if kind == "minimal":
        return f"perversity={p.get('perversity')}"
    if kind == "transform":
        return f"charts={len(p.get('charts', {}))}"
    if kind == "pair":
        return f"degree={p.get('degree')} direct={p.get('direct_degree')}"
    if kind == "audit":
        degrees = [v.get("degree") for v in p.get("values", [])]
        return f"verdict={p.get('verdict')} degrees={degrees}"
    if kind == "compare-towers":
        return f"degrees={p.get('degrees')} agree={p.get('agree')}"
    if kind == "incidence":
        return "empty" if p.get("empty") else " ".join(p.get("points", []))
    if kind == "audit-tower":
        return f"smooth={p.get('all_charts_smooth')} leaves={p.get('nonempty_leaves')}"
    return ""


def _print_report(report: dict) -> None:
    print(f"scenario {report['scenario']} ({len(report['tasks'])} tasks)")
    for row in report["tasks"]:
        kind = row["payload"].get("kind", "")
        print(f"  [{row['status']}] {row['name']} ({kind}) {_summary(row)} "
              f"[{row['ms']} ms, {row['counters']['reduction_steps']} steps]")


def _slim(report: dict) -> dict:
    return {
        "scenario": report["scenario"],
        "version": report["version"],
        "elapsed_ms": report["elapsed_ms"],
        "tasks": [
            {k: row[k] for k in ("name", "status", "payload", "counters")}
            for row in report["tasks"]
        ],
    }


def _write_json(data: dict, path: str) -> bool:
    """Write data to path as indented JSON; False, after a message on
    stderr, when the path cannot be written."""
    try:
        Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as e:
        print(f"{path}: cannot write: {e}", file=sys.stderr)
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singpair",
        description="stratified intersection pairings through blowup towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("scenario", help="scenario file (.scn)")
        p.add_argument("--json", metavar="PATH", help="also write a JSON report")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="STEPS",
                       help="reduction-step budget per task")
        p.add_argument("--allow-nonstandard-perversity", action="store_true",
                       help="waive the standardness requirement in audits")
        p.add_argument("--strict-complementarity", action="store_true",
                       help="ignore per-task complementarity waivers")
    return parser


def _validate(path: Path, json_path: str | None) -> int:
    diags = validate_scenario(path)
    for d in diags:
        print(d.render(str(path)))
    if not diags:
        print(f"{path}: ok")
    if json_path:
        report = {
            "scenario": path.stem,
            "version": __version__,
            "diagnostics": [{"line": d.line, "message": d.message} for d in diags],
        }
        if not _write_json(report, json_path):
            return 2
    return 2 if diags else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    path = Path(args.scenario)
    try:
        if args.command == "validate":
            return _validate(path, args.json)
        scenario = parse_scenario(path)
    except ScenarioError as e:  # also a file that cannot be read
        print(str(e), file=sys.stderr)
        return 2

    if args.budget <= 0:
        print("--budget must be positive", file=sys.stderr)
        return 2
    flags = Flags(
        budget=args.budget,
        allow_nonstandard=args.allow_nonstandard_perversity,
        strict_complementarity=args.strict_complementarity,
    )
    report = run_tasks(scenario, flags, None if args.command == "run" else args.command)
    _print_report(report)
    if args.json and not _write_json(_slim(report), args.json):
        return 2
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
