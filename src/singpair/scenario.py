"""Scenario files: a line-oriented description of one computation run.

A scenario declares a ring, a space, a tower of blowup centers, named
stratifications, cycles, families, and a list of tasks.  Sections are
headed [ring], [space], [tower], [strata], [cycles], [families], [tasks].
Lines in [ring] and [space] are `key = value`; lines everywhere else are
`name: key = value | key = value | ...` with `|` separating fields.  A key
is given at most once per line (once per section in [ring] and [space]);
only a [strata] `piece` may repeat, each copy adding one piece.  Names are
nonempty.  Polynomial lists separate their generators with `;`.  `#` starts
a comment.

Every section is read by one reader from a table of key -> (parser,
default), task arguments from TASK_ARGS, so a value that validates is one a
run can use.  Parsing and validation never run Groebner bases; building
towers and stratifications is deferred to the workspace so that the cost
lands on the task that asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .blowup import ResolutionTower
from .cycles import Cycle, CycleFamily, Perversity
from .errors import PerversityError, PolyParseError, ScenarioError
from .ideals import Ideal, groebner
from .pairing import VERDICTS
from .polyring import MonomialOrder, Polynomial, PolynomialRing
from .strata import PRESETS, RULES, Stratification

SECTIONS = ("ring", "space", "tower", "strata", "cycles", "families", "tasks")


# -- field values ---------------------------------------------------------------
#
# Each parser turns a field's text into the value it stands for, or raises
# ValueError with the rest of a sentence that starts with the key, or
# ScenarioError with a whole message.


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


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(f"must be a positive integer, got {text!r}")
    return value


def _name(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


_SPELLING = "a letter or _, then letters, digits or _"


def _is_variable(name: str) -> bool:
    """Whether the polynomial grammar reads name as one variable."""
    return (name[:1].isalpha() or name[:1] == "_") and all(
        c.isalnum() or c == "_" for c in name)


def _variable(text: str) -> str:
    if not _is_variable(text):
        raise ValueError(f"must be a variable name ({_SPELLING}), got {text!r}")
    return text


def _variables(text: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    bad = [v for v in names if not _is_variable(v)]
    if bad:
        raise ValueError(f"must be variable names ({_SPELLING}), got {bad}")
    if not names or len(set(names)) != len(names):
        raise ValueError(f"must be distinct and nonempty, got {text!r}")
    return names


def _rules(text: str) -> tuple[str, ...]:
    parts = tuple(r.strip() for r in text.split(",") if r.strip())
    if not parts:
        raise ValueError(f"must name at least one rule (have {list(RULES)})")
    bad = [r for r in parts if r not in RULES]
    if bad:
        raise ValueError(f"names unknown rules {bad} (have {list(RULES)})")
    return parts


def _preset(text: str) -> tuple[str, ...]:
    """The rules a named preset stands for."""
    if text not in PRESETS:
        raise ValueError(f"names an unknown preset {text!r} (have {sorted(PRESETS)})")
    return PRESETS[text]


def _perversity(text: str) -> Perversity:
    try:
        return Perversity(tuple(int(v) for v in text.split(",")))
    except (ValueError, PerversityError) as e:
        raise ValueError(
            f"must be a perversity such as 0,0,1 (bad perversity {text!r}: {e})") from None


def _perversity_or_none(text: str) -> str:
    """Canonical perversity text such as `0,0,1`, or `none`."""
    return text if text == "none" else str(_perversity(text))


def _marked(text: str) -> tuple[Fraction, ...]:
    try:
        values = tuple(Fraction(v.strip()) for v in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"must be numbers such as 0, 1, got {text!r}") from None
    if len(set(values)) != len(values):
        raise ValueError(f"must be distinct, got {text!r}")
    return values


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


def _gens(ring: PolynomialRing, at_least: int = 0) -> Callable[[str], tuple[Polynomial, ...]]:
    """A parser of `;`-separated generators in `ring`."""

    def parse(text: str) -> tuple[Polynomial, ...]:
        gens = []
        for part in text.split(";"):
            part = part.strip()
            if part:
                try:
                    gens.append(ring.parse(part))
                except (PolyParseError, KeyError) as e:
                    raise ScenarioError(f"bad polynomial {part!r}: {e}") from None
        if len(gens) < at_least:
            raise ValueError(f"needs at least {at_least} generator{'s' * (at_least > 1)}")
        return tuple(gens)

    return parse


def _center(ring: PolynomialRing) -> Callable[[str], tuple[Polynomial, ...]]:
    """A parser of a tower step's center: `;`-separated generators in ring
    whose reduced basis has at least two elements. A principal center is
    refused however it is written (`x; 2*x`, `x^2; x`): its blowup changes
    nothing, and the strict transform would drop the component it cuts
    out."""
    parse = _gens(ring)

    def center(text: str) -> tuple[Polynomial, ...]:
        gens = parse(text)
        if len(groebner(gens)) < 2:
            raise ValueError("needs at least 2 generators")
        return gens

    return center


_REQUIRED = object()  # default of a key an entry must give

# key -> (parser, default); a default of None leaves the key out of what
# the reader returns when the entry does not give it
Fields = dict[str, tuple[Callable[[str], object], object]]

_NAME = (_name, _REQUIRED)
_FLAG = (_flag, False)
TASK_ARGS: dict[str, Fields] = {
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


def _task_kind(text: str) -> str:
    if text not in TASK_ARGS:
        raise ValueError(f"names an unknown task kind {text!r} (have {list(TASK_ARGS)})")
    return text


_RING: Fields = {"vars": (_variables, None), "order": (_one_of("grevlex", "lex"), "grevlex")}
_TASK: Fields = {"kind": (_task_kind, _REQUIRED)}


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

Pairs = list[tuple[int, str, str]]  # (line, key, value text)


def _split_fields(n: int, body: str) -> Pairs:
    fields = []
    for chunk in body.split("|"):
        if "=" not in chunk:
            raise ValueError(f"expected key = value, got {chunk.strip()!r}")
        key, _, value = chunk.partition("=")
        fields.append((n, key.strip(), value.strip()))
    return fields


def _structure(text: str, diags: list[Diagnostic]) -> dict[str, list]:
    """Section -> its (line, key, value) pairs for [ring] and [space], and
    its (line, name, pairs) entries for every other section."""
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
            try:
                out[section].append((n, name.strip(), _split_fields(n, body)))
            except ValueError as e:
                diags.append(Diagnostic(n, str(e)))
    return out


# -- semantic assembly ----------------------------------------------------------


def _read(n: int, pairs: Pairs, fields: Fields, what: str, diags: list[Diagnostic],
          many: tuple[str, ...] = ()) -> tuple[dict[str, object], bool]:
    """One entry's values, each pair parsed by fields[key] = (parser,
    default), and whether they all read.  A key in `many` may repeat and
    collects into a tuple.  Unknown, repeated, unparsable and missing keys
    are diagnostics on their lines (a missing key on line n, as one that
    `what` needs); a key left without a value takes its default."""
    before = len(diags)
    args: dict[str, object] = {}
    seen = set()
    for line, key, text in pairs:
        if key not in fields:
            diags.append(Diagnostic(line, f"unknown key {key!r} (allowed: {sorted(fields)})"))
            continue
        if key in seen and key not in many:
            diags.append(Diagnostic(line, f"repeated key {key!r}"))
            continue
        seen.add(key)
        try:
            value = fields[key][0](text)
        except ValueError as e:
            diags.append(Diagnostic(line, f"{key} {e}"))
            continue
        except ScenarioError as e:
            diags.append(Diagnostic(line, str(e)))
            continue
        args[key] = args.get(key, ()) + (value,) if key in many else value
    for key, (_, default) in fields.items():
        if key in args:
            continue
        if default is _REQUIRED:
            if key not in seen:
                diags.append(Diagnostic(n, f"{what} needs {key}"))
        elif default is not None:
            args[key] = default
    return args, len(diags) == before


def _assemble(text: str, name: str, path: str, diags: list[Diagnostic]) -> Scenario | None:
    sections = _structure(text, diags)

    first = sections["ring"][0][0] if sections["ring"] else 1
    ring_args, _ = _read(first, sections["ring"], _RING, "[ring]", diags)
    if "vars" not in ring_args:
        if not any(key == "vars" for _, key, _ in sections["ring"]):
            diags.append(Diagnostic(first, "missing [ring] vars declaration"))
        return None
    ring = PolynomialRing(ring_args["vars"], MonomialOrder(ring_args["order"]))
    gens = _gens(ring)

    space_fields: Fields = {"kind": (_one_of("affine", "projective"), "affine"),
                            "relations": (gens, ())}
    space, _ = _read(first, sections["space"], space_fields, "[space]", diags)

    taken: dict[str, int] = {}

    def claimed(section: str, what: str):
        """(line, name, pairs) of each entry whose name is nonempty and free."""
        for n, nm, pairs in sections[section]:
            if not nm:
                diags.append(Diagnostic(n, f"{what} needs a name before ':'"))
            elif nm in taken:
                diags.append(Diagnostic(n, f"name {nm!r} already used on line {taken[nm]}"))
            else:
                taken[nm] = n
                yield n, nm, pairs

    def entries(section: str, fields: Fields, what: str, many: tuple[str, ...] = ()):
        """(line, name, values) of each claimed entry whose fields read."""
        for n, nm, pairs in claimed(section, what):
            args, ok = _read(n, pairs, fields, what, diags, many)
            if ok:
                yield n, nm, args

    center: Fields = {"center": (_center(ring), _REQUIRED)}
    steps = [(nm, args["center"]) for _, nm, args in entries("tower", center, "tower step")]

    strata: dict[str, dict] = {}
    strat_fields: Fields = {"rules": (_rules, None), "preset": (_preset, None),
                            "piece": (lambda text: Ideal(ring, gens(text)), ())}
    for n, nm, args in entries("strata", strat_fields, "stratification", many=("piece",)):
        if "rules" in args and "preset" in args:
            diags.append(Diagnostic(n, "give rules or preset, not both"))
            continue
        spec = {"user_pieces": args["piece"]}
        for key in ("rules", "preset"):
            if key in args:
                spec["rules"] = args[key]
        strata[nm] = spec

    cycle_fields: Fields = {"gens": (_gens(ring, 1), _REQUIRED),
                            "perversity": (_perversity, None), "mult": (_positive, 1)}
    cycles = {
        nm: Cycle(nm, Ideal(ring, args["gens"]), args.get("perversity"), args["mult"])
        for _, nm, args in entries("cycles", cycle_fields, "cycle")
    }

    families: dict[str, CycleFamily] = {}
    family_fields: Fields = {"total": (str, _REQUIRED), "param": (_variable, _REQUIRED),
                             "marked": (_marked, _REQUIRED), "perversity": (_perversity, None)}
    for n, nm, args in entries("families", family_fields, "family"):
        param = args["param"]
        if param in ring.names:
            diags.append(Diagnostic(n, f"parameter {param!r} collides with a ring variable"))
            continue
        if space["kind"] == "projective":
            diags.append(Diagnostic(n, "families need an affine space; dehomogenize first"))
            continue
        extended = PolynomialRing(ring.names + (param,), ring.order)
        total, ok = _read(n, [(n, "total", args["total"])],
                          {"total": (_gens(extended, 1), _REQUIRED)}, "family", diags)
        if ok:
            families[nm] = CycleFamily(nm, Ideal(extended, total["total"]), param,
                                       args["marked"], args.get("perversity"))

    tasks: list[Task] = []
    for n, nm, pairs in claimed("tasks", "task"):
        head, ok = _read(n, [p for p in pairs if p[1] == "kind"], _TASK, "task", diags)
        if ok:
            kind = head["kind"]
            args, ok = _read(n, [p for p in pairs if p[1] != "kind"], TASK_ARGS[kind],
                             f"{kind} task", diags)
            if ok:
                tasks.append(Task(nm, kind, args, n))

    scenario = Scenario(
        name=name, path=path, ring=ring, kind=space["kind"], relations=space["relations"],
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


def _text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"{path}: cannot read: {e}") from None


def parse_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file, raising on the first problem found."""
    path = Path(path)
    diags: list[Diagnostic] = []
    scenario = _assemble(_text(path), path.stem, str(path), diags)
    if diags:
        first = min(diags, key=lambda d: d.line)
        raise ScenarioError(first.render(str(path)))
    assert scenario is not None
    return scenario


def validate_scenario(path: str | Path) -> list[Diagnostic]:
    """All grammar, reference, and invariant problems; never computes.
    Raises ScenarioError if the file cannot be read."""
    path = Path(path)
    diags: list[Diagnostic] = []
    _assemble(_text(path), path.stem, str(path), diags)
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
