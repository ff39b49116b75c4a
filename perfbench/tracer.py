"""Per-layer tracing from outside the package.

The recorder wraps public functions of each singpair module (and the few
private methods that are the layer boundaries named in the per-layer
table) with span and counter wrappers.  A function imported by name into
other modules is replaced in every module that binds it.  Spans are kept
in memory as [name, start, end, parent, task, tag] and written out when
the benchmark ends; self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

# span name -> (module, attribute path); several targets may share a name
SPAN_TARGETS = (
    ("ideals.groebner", "ideals", "groebner"),
    ("ideals.eliminate", "ideals", "Ideal.eliminate"),
    ("ideals.saturate", "ideals", "Ideal.saturate"),
    ("ideals.radical_contains", "ideals", "Ideal.radical_contains"),
    ("factor.factor", "factor", "factor"),
    ("geometry.zero_dim_decompose", "geometry", "zero_dim_decompose"),
    ("geometry.singular_locus", "geometry", "singular_locus"),
    ("blowup.blow_up", "blowup", "ResolutionTower.blow_up"),
    ("blowup.proper_transform", "blowup", "proper_transform"),
    ("blowup.blowdown_image", "blowup", "blowdown_image"),
    ("strata.build", "strata", "Stratification.__init__"),
    ("strata.rule_images", "strata", "Stratification._rule_images"),
    ("strata.rule_fibers", "strata", "Stratification._rule_fibers"),
    ("strata.rule_singular_images", "strata", "Stratification._rule_singular_images"),
    ("strata.jump_candidates", "strata", "Stratification._jump_candidates"),
    ("strata.minimal", "strata", "Stratification._minimal"),
    ("cycles.perversity_check", "cycles", "perversity_check"),
    ("cycles.minimal_perversity", "cycles", "minimal_perversity"),
    ("cycles.family_check", "cycles", "weak_family_check"),
    ("cycles.family_check", "cycles", "strong_family_check"),
    ("cycles.error_terms", "cycles", "error_terms"),
    ("pairing.transform", "pairing", "transform_cycle"),
    ("pairing.intersect", "pairing", "intersect_on_chart"),
    ("pairing.pushforward", "pairing", "pushforward"),
    ("pairing.direct_degree", "pairing", "direct_degree"),
    ("scenario.parse", "scenario", "parse_scenario"),
    ("cli.jsonable", "cli", "jsonable"),
)
# spans recorded by hand-written wrappers below
EXTRA_SPANS = ("scenario.workspace_tower", "scenario.workspace_strat", "cli.task")
SPANS = tuple(dict.fromkeys([name for name, _, _ in SPAN_TARGETS] + list(EXTRA_SPANS)))

COUNTERS = (
    ("polyring.sort_key_calls", "count"),
    ("polyring.leading_monomial_calls", "count"),
    ("polyring.mul_calls", "count"),
    ("ideals.gb_requests", "count"),
    ("ideals.gb_cache_hit_ratio", "ratio"),
    ("ideals.spairs_reduced", "count"),
    ("ideals.spair_zero_ratio", "ratio"),
    ("ideals.max_basis_len", "count"),
    ("blowup.leaves", "count"),
    ("strata.jump_eliminations", "count"),
    ("strata.jump_yield_ratio", "ratio"),
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.incl_s"] = "s"
        units[f"{span}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Recorder:
    """Span and counter recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = -1
        self.counts = dict.fromkeys(
            ("sort_key", "leading_monomial", "mul", "gb_requests", "gb_hits",
             "spairs", "spairs_zero", "max_basis", "leaves", "jump_pieces"), 0)
        self._last_spoly = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, tag: str = "") -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.task, tag]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def next_task(self) -> None:
        """Start a new task id; spans opened from now on carry it."""
        self.task += 1

    def spanned(self, name: str, fn, after=None):
        """fn wrapped in a span; a direct re-entry (recursion) is not split."""
        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, package_modules, original, wrapper) -> None:
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, singpair) -> None:
        mods = {
            name: importlib.import_module(f"singpair.{name}")
            for name in ("polyring", "ideals", "factor", "geometry", "blowup",
                         "strata", "cycles", "pairing", "scenario", "cli")
        }
        package = [singpair, *mods.values()]
        counts = self.counts

        hooks = {
            "ideals.groebner": self._after_groebner,
            "strata.rule_images": self._after_rule_images,
        }
        for name, mod, path in SPAN_TARGETS:
            owner, attr = _resolve(mods[mod], path)
            original = getattr(owner, attr)
            wrapper = self.spanned(name, original, hooks.get(name))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._replace_everywhere(package, original, wrapper)

        poly = mods["polyring"]
        self._set(poly.MonomialOrder, "sort_key",
                  self.counted("sort_key", poly.MonomialOrder.sort_key))
        self._set(poly.Polynomial, "leading_monomial",
                  self.counted("leading_monomial", poly.Polynomial.leading_monomial))
        mul = self.counted("mul", poly.Polynomial.__mul__)
        self._set(poly.Polynomial, "__mul__", mul)
        self._set(poly.Polynomial, "__rmul__", mul)

        ideals = mods["ideals"]
        gb_method = ideals.Ideal.groebner

        def ideal_groebner(ideal):
            counts["gb_requests"] += 1
            if ideal._gb is not None:
                counts["gb_hits"] += 1
            return gb_method(ideal)

        self._set(ideals.Ideal, "groebner", ideal_groebner)
        s_poly = ideals.s_polynomial
        normal_form = ideals.normal_form

        def s_polynomial(f, g):
            self._last_spoly = s_poly(f, g)
            return self._last_spoly

        def reduce(f, basis):
            r = normal_form(f, basis)
            if f is self._last_spoly:
                self._last_spoly = None
                counts["spairs"] += 1
                if r.is_zero():
                    counts["spairs_zero"] += 1
            return r

        self._replace_everywhere(package, s_poly, s_polynomial)
        self._replace_everywhere(package, normal_form, reduce)

        ws = mods["scenario"].Workspace
        self._set(ws, "tower", self._first_build(
            "scenario.workspace_tower", ws.tower,
            lambda w, prefix=None: (len(w.scenario.steps) if prefix is None else prefix) in w._towers,
            after=self._after_tower))
        self._set(ws, "strat", self._first_build(
            "scenario.workspace_strat", ws.strat,
            lambda w, name, prefix=None: (
                name, len(w.scenario.steps) if prefix is None else prefix) in w._strats))
        self._set(ws, "ad_hoc_strat", self._first_build(
            "scenario.workspace_strat", ws.ad_hoc_strat,
            lambda w, rules, prefix=None: (
                "", rules, len(w.scenario.steps) if prefix is None else prefix) in w._strats))

        cli = mods["cli"]
        for kind, runner in list(cli._RUNNERS.items()):
            self._patches.append((cli._RUNNERS, kind, runner))
            cli._RUNNERS[kind] = self._task_runner(kind, runner)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- hand-written wrappers -------------------------------------------------

    def _first_build(self, name: str, method, cached, after=None):
        """Span only the call that builds and caches a workspace object."""
        spanned = self.spanned(name, method, after)

        def wrapper(ws, *args, **kwargs):
            if cached(ws, *args, **kwargs):
                return method(ws, *args, **kwargs)
            return spanned(ws, *args, **kwargs)

        return wrapper

    def _task_runner(self, kind: str, runner):
        def wrapper(ws, task, flags):
            self.next_task()
            span = self.open("cli.task", kind)
            try:
                return runner(ws, task, flags)
            finally:
                self.close(span)

        return wrapper

    def _after_groebner(self, args, basis) -> None:
        self.counts["max_basis"] = max(self.counts["max_basis"], len(basis))

    def _after_rule_images(self, args, result) -> None:
        strat = args[0]
        self.counts["jump_pieces"] += sum(p.note == "fiber jump" for p in strat.pieces)

    def _after_tower(self, args, tower) -> None:
        self.counts["leaves"] += len(tower.leaves)

    # -- reporting -------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass span totals and counters, keyed like layer_metric_units()."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls = dict.fromkeys(SPANS, 0)
        incl = dict.fromkeys(SPANS, 0.0)
        self_s = dict.fromkeys(SPANS, 0.0)
        jump_elims = 0
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            if name not in ancestors:  # nested calls of one name count once
                incl[name] += end - start
            if name == "ideals.eliminate" and "strata.jump_candidates" in ancestors:
                jump_elims += 1
        c = self.counts
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.incl_s"] = incl[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        out.update({
            "polyring.sort_key_calls": c["sort_key"] / passes,
            "polyring.leading_monomial_calls": c["leading_monomial"] / passes,
            "polyring.mul_calls": c["mul"] / passes,
            "ideals.gb_requests": c["gb_requests"] / passes,
            "ideals.gb_cache_hit_ratio": c["gb_hits"] / c["gb_requests"] if c["gb_requests"] else 0.0,
            "ideals.spairs_reduced": c["spairs"] / passes,
            "ideals.spair_zero_ratio": c["spairs_zero"] / c["spairs"] if c["spairs"] else 0.0,
            "ideals.max_basis_len": c["max_basis"],
            "blowup.leaves": c["leaves"] / passes,
            "strata.jump_eliminations": jump_elims / passes,
            "strata.jump_yield_ratio": c["jump_pieces"] / jump_elims if jump_elims else 0.0,
        })
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, task, tag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for name, start, end, parent, task, tag in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - t0, 6), "end": round(end - t0, 6),
                    "parent": parent, "task": task, "tag": tag,
                }) + "\n")


def print_table(metrics: dict[str, float], file=sys.stdout) -> None:
    """The per-layer table: one row per span, then the counters."""
    print(f"{'span':32} {'calls':>10} {'incl_s':>10} {'self_s':>10}", file=file)
    for span in SPANS:
        print(f"{span:32} {metrics[span + '.calls']:>10.1f} "
              f"{metrics[span + '.incl_s']:>10.4f} {metrics[span + '.self_s']:>10.4f}", file=file)
    for name, _ in COUNTERS:
        print(f"{name:32} {metrics[name]:>10.4g}", file=file)
    print(f"{'trace.overhead_s':32} {metrics['trace.overhead_s']:>10.4f}", file=file)
