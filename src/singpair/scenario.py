"""Scenario files: a line-oriented description of one computation run.

A scenario declares a ring, a space, a tower of blowup centers, named
stratifications, cycles, families, and a list of tasks.  Sections are
headed [ring], [space], [tower], [strata], [cycles], [families], [tasks].
Lines in [ring] and [space] are `key = value`; lines everywhere else are
`name: key = value | key = value | ...` with `|` separating fields and a
repeated key collecting into a list.  Polynomial lists separate their
generators with `;`.  `#` starts a comment.

Task arguments are parsed here, by one table (TASK_ARGS), so a value that
validates is one a run can use.  Parsing and validation never run Groebner
bases; building towers and stratifications is deferred to the workspace so
that the cost lands on the task that asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .blowup import ResolutionTower
from .cycles import Cycle, CycleFamily, Perversity
from .errors import PerversityError, PolyParseError, ScenarioError
from .ideals import Ideal
from .pairing import VERDICTS
from .polyring import MonomialOrder, Polynomial, PolynomialRing
from .strata import PRESETS, RULES, Stratification

SECTIONS = ("ring", "space", "tower", "strata", "cycles", "families", "tasks")


# -- task arguments -------------------------------------------------------------
#
# Each parser turns an argument's text into the value the runner uses, or
# raises ValueError with the rest of a sentence that starts with the key.


def _one_of(*values: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in values:
            raise ValueError(f"must be {' or '.join(values)}, got {text!r}")
        return text

    return parse


def _flag(text: str) -> bool:
    return _one_of("true", "false")(text) == "true"


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _rules(text: str) -> tuple[str, ...]:
    parts = tuple(r.strip() for r in text.split(",") if r.strip())
    bad = [r for r in parts if r not in RULES]
    if bad:
        raise ValueError(f"names unknown rules {bad} (have {list(RULES)})")
    return parts


def _perversity_or_none(text: str) -> str:
    """Canonical perversity text such as `0,0,1`, or `none`."""
    if text == "none":
        return text
    try:
        return str(Perversity(tuple(int(v) for v in text.split(","))))
    except (ValueError, PerversityError):
        raise ValueError(f"must be a perversity such as 0,0,1 or none, got {text!r}") from None


def _points(text: str) -> list[tuple[Fraction, ...]]:
    """`;`-separated projective points such as `[1:0:2]`, or `empty`."""
    if text == "empty":
        return []
    points = []
    for part in text.split(";"):
        part = part.strip()
        try:
            if not (part.startswith("[") and part.endswith("]")):
                raise ValueError
            points.append(tuple(Fraction(c) for c in part[1:-1].split(":")))
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"must be empty or points such as [1:0:2] separated by ;, got {part!r}") from None
    return points


_REQUIRED = object()  # default of an argument a task must give

# kind -> argument -> (parser, default); a default of None leaves the
# argument out of Task.args when the task does not give it
_NAME = (str, _REQUIRED)
_FLAG = (_flag, False)
TASK_ARGS: dict[str, dict[str, tuple[Callable[[str], object], object]]] = {
    "stratify": {"strat": _NAME},
    "check": {"cycle": _NAME, "strat": _NAME, "expect": (_one_of("pass", "fail"), "pass")},
    "minimal": {"cycle": _NAME, "strat": _NAME, "expect": (_perversity_or_none, None)},
    "transform": {"cycle": _NAME, "strat": _NAME},
    "pair": {
        "a": _NAME, "b": _NAME, "strat": _NAME,
        "allow_noncomplementary": _FLAG, "expect_degree": (_integer, None),
    },
    "audit": {
        "cycle": _NAME, "family": _NAME, "strat": _NAME,
        "mode": (_one_of("weak", "strong"), "strong"),
        "allow_noncomplementary": _FLAG, "allow_nonstandard": _FLAG,
        "expect": (_one_of(*VERDICTS), "CONSISTENT"),
    },
    "compare-towers": {
        "a": _NAME, "b": _NAME, "prefix": (_integer, _REQUIRED), "rules": (_rules, ("images",)),
        "allow_noncomplementary": _FLAG, "expect_agree": (_flag, None),
    },
    "incidence": {"a": _NAME, "b": _NAME, "expect": (_points, None)},
    "audit-tower": {"expect_smooth": (_flag, None)},
}


@dataclass
class Diagnostic:
    line: int
    message: str

    def render(self, path: str) -> str:
        return f"{path}:{self.line}: {self.message}"


@dataclass
class Task:
    name: str
    kind: str
    args: dict[str, object]  # parsed, defaults filled in (see TASK_ARGS)
    line: int


@dataclass
class Scenario:
    name: str
    path: str
    ring: PolynomialRing
    kind: str  # affine or projective
    relations: tuple[Polynomial, ...]
    steps: list[tuple[str, tuple[Polynomial, ...]]]
    strata: dict[str, dict]
    cycles: dict[str, Cycle]
    families: dict[str, CycleFamily]
    tasks: list[Task] = field(default_factory=list)


# -- low-level line structure ---------------------------------------------------


def _split_fields(body: str) -> list[tuple[str, str]]:
    fields = []
    for chunk in body.split("|"):
        if "=" not in chunk:
            raise ValueError(f"expected key = value, got {chunk.strip()!r}")
        key, _, value = chunk.partition("=")
        fields.append((key.strip(), value.strip()))
    return fields


def _structure(text: str, diags: list[Diagnostic]) -> dict[str, list[tuple[int, str, str | None]]]:
    """Section -> list of (line_no, name_or_key, body); body None for key=value lines."""
    out: dict[str, list] = {s: [] for s in SECTIONS}
    section = None
    seen = set()
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                diags.append(Diagnostic(n, f"malformed section header {line!r}"))
                continue
            name = line[1:-1].strip().lower()
            if name not in SECTIONS:
                diags.append(Diagnostic(n, f"unknown section [{name}]"))
                section = None
                continue
            if name in seen:
                diags.append(Diagnostic(n, f"duplicate section [{name}]"))
            seen.add(name)
            section = name
            continue
        if section is None:
            diags.append(Diagnostic(n, "content before any section header"))
            continue
        if section in ("ring", "space"):
            if "=" not in line:
                diags.append(Diagnostic(n, f"expected key = value in [{section}]"))
                continue
            key, _, value = line.partition("=")
            out[section].append((n, key.strip().lower(), value.strip()))
        else:
            if ":" not in line:
                diags.append(Diagnostic(n, f"expected name: fields in [{section}]"))
                continue
            name, _, body = line.partition(":")
            out[section].append((n, name.strip(), body.strip()))
    return out


# -- semantic assembly ----------------------------------------------------------


def _parse_fields(n: int, body: str, allowed: set[str], diags: list[Diagnostic]) -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    try:
        pairs = _split_fields(body)
    except ValueError as e:
        diags.append(Diagnostic(n, str(e)))
        return fields
    for key, value in pairs:
        if key not in allowed:
            diags.append(Diagnostic(n, f"unknown key {key!r} (allowed: {sorted(allowed)})"))
            continue
        fields.setdefault(key, []).append(value)
    return fields


def _single(fields: dict[str, list[str]], key: str) -> str | None:
    values = fields.get(key)
    return values[-1] if values else None


def _gens(ring: PolynomialRing, text: str, n: int, diags: list[Diagnostic]) -> tuple[Polynomial, ...] | None:
    gens = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            gens.append(ring.parse(part))
        except (PolyParseError, KeyError) as e:
            diags.append(Diagnostic(n, f"bad polynomial {part!r}: {e}"))
            return None
    return tuple(gens)


def _perversity(text: str, n: int, diags: list[Diagnostic]) -> Perversity | None:
    try:
        return Perversity(tuple(int(v) for v in text.split(",")))
    except (ValueError, PerversityError) as e:
        diags.append(Diagnostic(n, f"bad perversity {text!r}: {e}"))
        return None


def _assemble(text: str, name: str, path: str, diags: list[Diagnostic]) -> Scenario | None:
    sections = _structure(text, diags)

    names: tuple[str, ...] | None = None
    order = "grevlex"
    for n, key, value in sections["ring"]:
        if key == "vars":
            parts = tuple(v.strip() for v in value.split(",") if v.strip())
            if len(set(parts)) != len(parts) or not parts:
                diags.append(Diagnostic(n, "ring variables must be distinct and nonempty"))
            else:
                names = parts
        elif key == "order":
            if value not in ("grevlex", "lex"):
                diags.append(Diagnostic(n, f"order is grevlex or lex, got {value!r}"))
            else:
                order = value
        else:
            diags.append(Diagnostic(n, f"unknown [ring] key {key!r}"))
    ring = PolynomialRing(names, MonomialOrder(order)) if names else None
    if ring is None:
        first = sections["ring"][0][0] if sections["ring"] else 1
        diags.append(Diagnostic(first, "missing [ring] vars declaration"))
        return None

    kind = "affine"
    relations: tuple[Polynomial, ...] = ()
    for n, key, value in sections["space"]:
        if key == "kind":
            if value not in ("affine", "projective"):
                diags.append(Diagnostic(n, f"space kind is affine or projective, got {value!r}"))
            else:
                kind = value
        elif key == "relations":
            gens = _gens(ring, value, n, diags)
            if gens is not None:
                relations = gens
        else:
            diags.append(Diagnostic(n, f"unknown [space] key {key!r}"))

    taken: dict[str, int] = {}

    def claim(nm: str, n: int) -> bool:
        if nm in taken:
            diags.append(Diagnostic(n, f"name {nm!r} already used on line {taken[nm]}"))
            return False
        taken[nm] = n
        return True

    steps = []
    for n, nm, body in sections["tower"]:
        if not claim(nm, n):
            continue
        fields = _parse_fields(n, body, {"center"}, diags)
        center = _single(fields, "center")
        if center is None:
            diags.append(Diagnostic(n, "tower step needs a center"))
            continue
        gens = _gens(ring, center, n, diags)
        if gens is None:
            continue
        if len(gens) < 2:
            diags.append(Diagnostic(
                n, "center needs at least 2 generators (a codim >= 2 regular sequence)"))
            continue
        steps.append((nm, gens))

    strata: dict[str, dict] = {}
    for n, nm, body in sections["strata"]:
        if not claim(nm, n):
            continue
        fields = _parse_fields(n, body, {"rules", "preset", "piece"}, diags)
        spec: dict = {}
        rules = _single(fields, "rules")
        if rules is not None:
            try:
                spec["rules"] = _rules(rules)
            except ValueError as e:
                diags.append(Diagnostic(n, f"rules {e}"))
                continue
        preset = _single(fields, "preset")
        if preset is not None:
            if preset not in PRESETS:
                diags.append(Diagnostic(n, f"unknown preset {preset!r} (have {sorted(PRESETS)})"))
                continue
            spec["preset"] = preset
        pieces = []
        for value in fields.get("piece", []):
            gens = _gens(ring, value, n, diags)
            if gens is not None:
                pieces.append(Ideal(ring, gens))
        if pieces:
            spec["user_pieces"] = tuple(pieces)
        strata[nm] = spec

    cycles: dict[str, Cycle] = {}
    for n, nm, body in sections["cycles"]:
        if not claim(nm, n):
            continue
        fields = _parse_fields(n, body, {"gens", "perversity", "mult"}, diags)
        gens_text = _single(fields, "gens")
        if gens_text is None:
            diags.append(Diagnostic(n, "cycle needs gens"))
            continue
        gens = _gens(ring, gens_text, n, diags)
        if gens is None or not gens:
            if gens is not None:
                diags.append(Diagnostic(n, "cycle needs at least one generator"))
            continue
        perversity = None
        ptext = _single(fields, "perversity")
        if ptext is not None:
            perversity = _perversity(ptext, n, diags)
            if perversity is None:
                continue
        mult = 1
        mtext = _single(fields, "mult")
        if mtext is not None:
            try:
                mult = int(mtext)
                if mult < 1:
                    raise ValueError
            except ValueError:
                diags.append(Diagnostic(n, f"bad multiplicity {mtext!r}"))
                continue
        cycles[nm] = Cycle(nm, Ideal(ring, gens), perversity, mult)

    families: dict[str, CycleFamily] = {}
    for n, nm, body in sections["families"]:
        if not claim(nm, n):
            continue
        fields = _parse_fields(n, body, {"total", "param", "marked", "perversity"}, diags)
        param = _single(fields, "param")
        total_text = _single(fields, "total")
        marked_text = _single(fields, "marked")
        if param is None or total_text is None or marked_text is None:
            diags.append(Diagnostic(n, "family needs total, param, and marked"))
            continue
        if param in ring.names:
            diags.append(Diagnostic(n, f"parameter {param!r} collides with a ring variable"))
            continue
        extended = PolynomialRing(ring.names + (param,), ring.order)
        gens = _gens(extended, total_text, n, diags)
        if gens is None or not gens:
            continue
        try:
            marked = tuple(Fraction(v.strip()) for v in marked_text.split(","))
        except (ValueError, ZeroDivisionError):
            diags.append(Diagnostic(n, f"bad marked values {marked_text!r}"))
            continue
        if len(set(marked)) != len(marked):
            diags.append(Diagnostic(n, "marked values must be distinct"))
            continue
        perversity = None
        ptext = _single(fields, "perversity")
        if ptext is not None:
            perversity = _perversity(ptext, n, diags)
            if perversity is None:
                continue
        if kind == "projective":
            diags.append(Diagnostic(n, "families need an affine space; dehomogenize first"))
            continue
        families[nm] = CycleFamily(nm, Ideal(extended, gens), param, marked, perversity)

    tasks: list[Task] = []
    for n, nm, body in sections["tasks"]:
        if not claim(nm, n):
            continue
        try:
            pairs = _split_fields(body)
        except ValueError as e:
            diags.append(Diagnostic(n, str(e)))
            continue
        given = dict(pairs)
        task_kind = given.pop("kind", None)
        if task_kind is None:
            diags.append(Diagnostic(n, "task needs a kind"))
            continue
        spec = TASK_ARGS.get(task_kind)
        if spec is None:
            diags.append(Diagnostic(n, f"unknown task kind {task_kind!r} (have {list(TASK_ARGS)})"))
            continue
        unknown = set(given) - set(spec)
        if unknown:
            diags.append(Diagnostic(
                n, f"unknown keys {sorted(unknown)} for {task_kind} (allowed: {sorted(spec)})"))
            continue
        args: dict[str, object] = {}
        for key, (parse, default) in spec.items():
            if key in given:
                try:
                    args[key] = parse(given[key])
                except ValueError as e:
                    diags.append(Diagnostic(n, f"{key} {e}"))
            elif default is _REQUIRED:
                diags.append(Diagnostic(n, f"{task_kind} task needs {key}"))
            elif default is not None:
                args[key] = default
        tasks.append(Task(nm, task_kind, args, n))

    scenario = Scenario(
        name=name, path=path, ring=ring, kind=kind, relations=relations,
        steps=steps, strata=strata, cycles=cycles, families=families, tasks=tasks,
    )
    _check_references(scenario, diags)
    return scenario


def _check_references(sc: Scenario, diags: list[Diagnostic]) -> None:
    """What a task's arguments name must exist and fit the scenario."""
    cycles = ("cycle", sc.cycles)
    pools = {"a": cycles, "b": cycles, "cycle": cycles,
             "family": ("family", sc.families), "strat": ("stratification", sc.strata)}
    for task in sc.tasks:
        a = task.args
        for key, (what, pool) in pools.items():
            if key in a and a[key] not in pool:
                diags.append(Diagnostic(task.line, f"unknown {what} {a[key]!r}"))
        if "prefix" in a and not 0 <= a["prefix"] < len(sc.steps):
            diags.append(Diagnostic(
                task.line, f"prefix must lie in 0..{max(len(sc.steps) - 1, 0)}, got {a['prefix']}"))
        fam = sc.families.get(a.get("family"))
        if fam is not None and len(fam.marked) < 2:
            diags.append(Diagnostic(
                task.line, f"family {fam.name!r} needs at least two marked values to audit"))
        if task.kind == "incidence":
            if sc.kind != "projective":
                diags.append(Diagnostic(task.line, "incidence tasks need a projective space"))
            for point in a.get("expect", ()):
                if len(point) != len(sc.ring.names):
                    diags.append(Diagnostic(
                        task.line, f"expected point has {len(point)} coordinates, "
                                   f"the ring has {len(sc.ring.names)} variables"))


def parse_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file, raising on the first problem found."""
    path = Path(path)
    diags: list[Diagnostic] = []
    scenario = _assemble(path.read_text(), path.stem, str(path), diags)
    if diags:
        first = min(diags, key=lambda d: d.line)
        raise ScenarioError(first.render(str(path)))
    assert scenario is not None
    return scenario


def validate_scenario(path: str | Path) -> list[Diagnostic]:
    """All grammar, reference, and invariant problems; never computes."""
    path = Path(path)
    diags: list[Diagnostic] = []
    _assemble(path.read_text(), path.stem, str(path), diags)
    diags.sort(key=lambda d: d.line)
    return diags


class Workspace:
    """Lazily built towers and stratifications for one scenario run.

    Towers are cached by step count and stratifications by (name, step
    count), so repeated tasks share the construction cost and reports
    stay deterministic. Building a tower keeps a snapshot after every
    step, and a tower not yet built grows from the longest cached prefix,
    so no blowup is done twice in one run.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._towers: dict[int, ResolutionTower] = {}
        self._strats: dict[tuple, Stratification] = {}

    def tower(self, prefix: int | None = None) -> ResolutionTower:
        count = len(self.scenario.steps) if prefix is None else prefix
        if count not in self._towers:
            sc = self.scenario
            if not self._towers:
                if sc.kind == "projective":
                    base = ResolutionTower.projective(sc.ring, sc.relations)
                else:
                    base = ResolutionTower.affine(sc.ring, sc.relations)
                self._towers[0] = base
            start = max(k for k in self._towers if k <= count)
            tower = self._towers[start]
            for k in range(start, count):
                tower = tower.copy()
                tower.blow_up(sc.steps[k][1])
                self._towers[k + 1] = tower
        return self._towers[count]

    def strat(self, name: str, prefix: int | None = None) -> Stratification:
        count = len(self.scenario.steps) if prefix is None else prefix
        key = (name, count)
        if key not in self._strats:
            spec = self.scenario.strata[name]
            self._strats[key] = Stratification(self.tower(prefix), **spec)
        return self._strats[key]

    def ad_hoc_strat(self, rules: tuple[str, ...], prefix: int | None = None) -> Stratification:
        key = ("", rules, len(self.scenario.steps) if prefix is None else prefix)
        if key not in self._strats:
            self._strats[key] = Stratification(self.tower(prefix), rules=rules)
        return self._strats[key]
