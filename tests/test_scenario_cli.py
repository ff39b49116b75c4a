"""Scenario parsing, validation diagnostics, and the command-line driver."""

import json
import re
from pathlib import Path

import pytest

from singpair.blowup import ResolutionTower
from singpair.cli import main
from singpair.errors import ScenarioError
from singpair.scenario import Workspace, parse_scenario, validate_scenario

CORPUS = Path(__file__).resolve().parents[1] / "src" / "singpair" / "corpus"

PLANE = """
[ring]
vars = x, y

[space]
kind = affine

[tower]
s1: center = x; y

[strata]
main: rules = images

[cycles]
H: gens = y - 1 | perversity = 0,0
V: gens = x - 1 | perversity = 0,1

[tasks]
meet: kind = pair | a = H | b = V | strat = main | expect_degree = 1
"""


def scn(tmp_path, text: str, name: str = "case.scn") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_cone_scenario_round_trips(self):
        sc = parse_scenario(CORPUS / "affine_quadric_cone.scn")
        assert sc.name == "affine_quadric_cone"
        assert sc.kind == "affine"
        assert sc.ring.names == ("x", "y", "z", "t")
        assert [s[0] for s in sc.steps] == ["s1"]
        assert set(sc.strata) == {"coarse", "refined"}
        assert set(sc.cycles) == {"D", "Dfine", "L", "alpha0", "alpha1"}
        assert set(sc.families) == {"A", "B"}
        assert len(sc.tasks) == 10
        assert sc.cycles["Dfine"].perversity.values == (0, 0, 1)
        assert sc.families["A"].marked == (0, 1)

    def test_comments_and_blank_lines_are_ignored(self, tmp_path):
        sc = parse_scenario(scn(tmp_path, PLANE + "\n# trailing comment\n"))
        assert sc.cycles["H"].ideal.gens[0] is not None
        assert sc.tasks[0].kind == "pair"

    def test_every_bundled_scenario_validates_clean(self):
        for path in sorted(CORPUS.glob("*.scn")):
            assert validate_scenario(path) == [], path.name

    def test_parse_error_carries_path_and_line(self, tmp_path):
        path = scn(tmp_path, "[ring]\nvars = x, y\n\n[cycles]\nC: gens = q + 1\n")
        with pytest.raises(ScenarioError, match=r"case\.scn:5: bad polynomial"):
            parse_scenario(path)


class TestValidation:
    def check(self, tmp_path, text: str, line: int, fragment: str):
        diags = validate_scenario(scn(tmp_path, text))
        assert any(d.line == line and fragment in d.message for d in diags), diags

    def test_unknown_section(self, tmp_path):
        self.check(tmp_path, "[ring]\nvars = x\n[junk]\n", 3, "unknown section")

    def test_content_before_section(self, tmp_path):
        self.check(tmp_path, "vars = x\n[ring]\nvars = x\n", 1, "before any section")

    def test_missing_ring(self, tmp_path):
        self.check(tmp_path, "[space]\nkind = affine\n", 1, "missing [ring]")

    def test_one_generator_center(self, tmp_path):
        text = "[ring]\nvars = x, y\n[tower]\ns1: center = x\n"
        self.check(tmp_path, text, 4, "at least 2 generators")

    def test_duplicate_name_across_sections(self, tmp_path):
        text = "[ring]\nvars = x, y\n[tower]\nD: center = x; y\n[cycles]\nD: gens = x\n"
        self.check(tmp_path, text, 6, "already used on line 4")

    def test_unknown_field_key(self, tmp_path):
        text = "[ring]\nvars = x, y\n[cycles]\nC: gens = x | weight = 3\n"
        self.check(tmp_path, text, 4, "unknown key 'weight'")

    def test_bad_perversity(self, tmp_path):
        text = "[ring]\nvars = x, y\n[cycles]\nC: gens = x | perversity = 0,q\n"
        self.check(tmp_path, text, 4, "bad perversity")

    def test_unknown_task_kind(self, tmp_path):
        text = "[ring]\nvars = x\n[tasks]\nt: kind = summon\n"
        self.check(tmp_path, text, 4, "unknown task kind")

    def test_task_reference_to_missing_cycle(self, tmp_path):
        text = PLANE + "\nextra: kind = minimal | cycle = ghost | strat = main\n"
        diags = validate_scenario(scn(tmp_path, text))
        assert any("unknown cycle 'ghost'" in d.message for d in diags)

    def test_prefix_out_of_range(self, tmp_path):
        text = PLANE + "\ncmp: kind = compare-towers | a = H | b = V | prefix = 1\n"
        diags = validate_scenario(scn(tmp_path, text))
        assert any("prefix must lie in 0..0" in d.message for d in diags)

    def test_compare_towers_rule_names_are_checked(self, tmp_path, capsys):
        text = PLANE + "\ncmp: kind = compare-towers | a = H | b = V | prefix = 0 | rules = imagez\n"
        path = scn(tmp_path, text)
        assert any("unknown rules ['imagez']" in d.message for d in validate_scenario(path))
        assert main(["validate", str(path)]) == 2
        capsys.readouterr()

    def test_expect_degree_must_be_an_integer(self, tmp_path, capsys):
        path = scn(tmp_path, PLANE.replace("expect_degree = 1", "expect_degree = one"))
        diags = validate_scenario(path)
        assert any("expect_degree must be an integer, got 'one'" in d.message for d in diags)
        assert main(["validate", str(path)]) == 2
        capsys.readouterr()

    def test_incidence_needs_projective_space(self, tmp_path):
        text = PLANE + "\ninc: kind = incidence | a = H | b = V\n"
        diags = validate_scenario(scn(tmp_path, text))
        assert any("projective space" in d.message for d in diags)

    def test_family_on_projective_space_is_rejected(self, tmp_path):
        text = (
            "[ring]\nvars = x, y, z\n[space]\nkind = projective\n"
            "[families]\nF: total = x - l*y | param = l | marked = 0, 1\n"
        )
        self.check(tmp_path, text, 6, "affine space")

    def test_boolean_arguments_are_strict(self, tmp_path):
        text = PLANE.replace("expect_degree = 1", "allow_noncomplementary = yes")
        diags = validate_scenario(scn(tmp_path, text))
        assert any("must be true or false" in d.message for d in diags)

    @pytest.mark.parametrize("scenario, old, new, fragment", [
        ("affine_quadric_cone", "expect = pass", "expect = passs", "expect must be pass or fail"),
        ("affine_quadric_cone", "expect = 0,0,1", "expect = 0;0", "expect must be a perversity"),
        ("projective_closure", "expect = [1:0:0:0:0]", "expect = [1:0:0:0]",
         "expected point has 4 coordinates, the ring has 5"),
        ("affine_quadric_cone", "mode = weak", "mode = waek", "mode must be weak or strong"),
        ("affine_quadric_cone", "expect = CONSISTENT", "expect = CONSISTNET",
         "expect must be CONSISTENT or DEGREE_ONLY"),
    ], ids=["check-expect", "minimal-expect", "incidence-arity", "audit-mode", "audit-expect"])
    def test_task_values_run_could_not_meet(self, tmp_path, capsys, scenario, old, new, fragment):
        text = (CORPUS / f"{scenario}.scn").read_text(encoding="utf-8")
        assert text.count(old) == 1
        text = text.replace(old, new)
        line = next(n for n, raw in enumerate(text.splitlines(), start=1) if new in raw)
        path = scn(tmp_path, text)
        self.check(tmp_path, text, line, fragment)
        assert main(["validate", str(path)]) == 2
        assert f"{path}:{line}: " in capsys.readouterr().out

    @pytest.mark.parametrize("old, new, repeat, key", [
        ("vars = x, y\n", "vars = x, y\nvars = x, y, z\n", "vars = x, y, z", "vars"),
        ("kind = affine\n", "kind = affine\nkind = projective\n", "kind = projective", "kind"),
        ("center = x; y", "center = x; y | center = y; x", "center = y; x", "center"),
        ("main: rules = images", "main: rules = images | rules = fibers", "rules = fibers",
         "rules"),
        ("perversity = 0,0\n", "perversity = 0,0 | perversity = 0,1\n", "H: gens", "perversity"),
        ("[tasks]", "[families]\nF: total = x - l | param = l | marked = 0, 1 | marked = 0, 2\n"
         "[tasks]", "marked = 0, 2", "marked"),
        ("expect_degree = 1", "expect_degree = 1 | expect_degree = 7", "expect_degree = 7",
         "expect_degree"),
    ], ids=["ring", "space", "tower", "strata", "cycles", "families", "tasks"])
    def test_repeated_key_is_rejected(self, tmp_path, capsys, old, new, repeat, key):
        assert PLANE.count(old) == 1
        text = PLANE.replace(old, new)
        line = next(n for n, raw in enumerate(text.splitlines(), start=1) if repeat in raw)
        path = scn(tmp_path, text)
        self.check(tmp_path, text, line, f"repeated key {key!r}")
        assert main(["validate", str(path)]) == 2
        assert f"{path}:{line}: repeated key {key!r}" in capsys.readouterr().out

    @pytest.mark.parametrize("fields, fragment", [
        ("rules = images | preset = curve_recipe", "give rules or preset, not both"),
        ("preset = nope", "preset names an unknown preset 'nope'"),
    ], ids=["rules-and-preset", "unknown-preset"])
    def test_strata_rules_or_one_known_preset(self, tmp_path, capsys, fields, fragment):
        text = PLANE.replace("main: rules = images", f"main: {fields}")
        self.check(tmp_path, text, 12, fragment)
        assert main(["validate", str(scn(tmp_path, text))]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("old, new, line, fragment", [
        ("H: gens", ": gens", 15, "cycle needs a name before ':'"),
        ("a = H", "a = ", 19, "a must not be empty"),
    ], ids=["entry", "argument"])
    def test_names_are_nonempty(self, tmp_path, capsys, old, new, line, fragment):
        text = PLANE.replace(old, new)
        self.check(tmp_path, text, line, fragment)
        assert main(["run", str(scn(tmp_path, text))]) == 2
        assert f":{line}: {fragment}" in capsys.readouterr().err

    def test_diagnostics_come_sorted_by_line(self, tmp_path):
        text = "[ring]\nvars = x\n[tasks]\nt: kind = summon\nu: nonsense\n"
        diags = validate_scenario(scn(tmp_path, text))
        assert [d.line for d in diags] == sorted(d.line for d in diags)
        assert len(diags) >= 2


class TestWorkspace:
    def test_towers_and_strata_are_cached(self):
        ws = Workspace(parse_scenario(CORPUS / "smooth_blowup_plane.scn"))
        assert ws.tower() is ws.tower()
        assert ws.strat("main") is ws.strat("main")

    def test_prefix_zero_is_the_bare_space(self):
        ws = Workspace(parse_scenario(CORPUS / "smooth_blowup_plane.scn"))
        assert ws.tower(prefix=0).steps == []
        assert len(ws.tower().steps) == 1

    @pytest.mark.parametrize("order", [(1, None), (None, 1)])
    def test_each_step_is_blown_up_once(self, monkeypatch, order):
        blow_up = ResolutionTower.blow_up
        calls = []

        def counting_blow_up(tower, center):
            calls.append(len(tower.steps))
            blow_up(tower, center)

        monkeypatch.setattr(ResolutionTower, "blow_up", counting_blow_up)
        sc = parse_scenario(CORPUS / "tower_extension.scn")
        ws = Workspace(sc)
        towers = {prefix: ws.tower(prefix) for prefix in order}
        assert sorted(calls) == [0, 1]
        assert towers[1].steps == [sc.steps[0][1]]
        assert towers[None].steps == [gens for _, gens in sc.steps]
        assert len(towers[1].leaves) == 3 and len(towers[None].leaves) == 12


class TestCommandLine:
    def test_validate_clean_file_exits_zero(self, capsys):
        code = main(["validate", str(CORPUS / "nodal_image.scn")])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_broken_file_exits_two_with_locations(self, tmp_path, capsys):
        path = scn(tmp_path, "[ring]\nvars = x, y\n[tower]\ns1: center = x\n")
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert f"{path}:4:" in out

    def test_run_on_unparseable_file_exits_two(self, tmp_path, capsys):
        path = scn(tmp_path, "[ring]\nvars = x\n[tasks]\nt: kind = summon\n")
        assert main(["run", str(path)]) == 2
        assert ":4:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "/nonexistent/thing.scn"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unreadable_file_exits_two(self, tmp_path, capsys, command):
        undecodable = tmp_path / "latin1.scn"
        undecodable.write_bytes((PLANE + "# caf\xe9\n").encode("latin-1"))
        for path in (tmp_path, undecodable):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"{path}: cannot read")

    def test_strata_piece_may_repeat(self, tmp_path, capsys):
        text = PLANE.replace("main: rules = images",
                             "main: rules = images | piece = x - 1; y | piece = x; y - 2")
        text += "st: kind = stratify | strat = main\n"
        out = tmp_path / "r.json"
        assert main(["stratify", str(scn(tmp_path, text)), "--json", str(out)]) == 0
        capsys.readouterr()
        (row,) = json.loads(out.read_text(encoding="utf-8"))["tasks"]
        pieces = [p["generators"] for p in row["payload"]["pieces"] if p["rule"] == "annotation"]
        assert pieces == [["y", "x - 1"], ["y - 2", "x"]]

    def test_plane_scenario_runs_clean(self, capsys):
        code = main(["run", str(CORPUS / "smooth_blowup_plane.scn")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ok]") == 5

    def test_tiny_budget_exits_three(self, tmp_path, capsys):
        path = scn(tmp_path, PLANE)
        code = main(["run", str(path), "--budget", "3"])
        assert code == 3
        assert "error:budget" in capsys.readouterr().out

    def test_budget_context_is_restored_after_run(self, tmp_path, capsys):
        path = scn(tmp_path, PLANE)
        assert main(["run", str(path), "--budget", "3"]) == 3
        assert main(["run", str(path)]) == 0
        capsys.readouterr()

    def test_missed_expectation_exits_one(self, tmp_path, capsys):
        path = scn(tmp_path, PLANE.replace("expect_degree = 1", "expect_degree = 7"))
        code = main(["run", str(path)])
        assert code == 1
        assert "error:expectation" in capsys.readouterr().out

    def test_computation_errors_are_reported_per_task(self, tmp_path, capsys):
        # the second task still runs after the first one fails
        text = PLANE + "\nbad: kind = pair | a = H | b = H | strat = main\n"
        code = main(["run", str(scn(tmp_path, text))])
        out = capsys.readouterr().out
        assert code == 1
        assert "error:complementarity" in out
        assert out.count("[ok]") == 1

    def test_strict_complementarity_overrides_task_waivers(self, capsys):
        path = str(CORPUS / "affine_quadric_cone.scn")
        code = main(["run", path, "--strict-complementarity"])
        out = capsys.readouterr().out
        assert code == 1
        assert "error:complementarity" in out

    def test_allow_nonstandard_flag_fills_in_for_task_arg(self, tmp_path, capsys):
        base = parse_text = (CORPUS / "affine_quadric_cone.scn").read_text(encoding="utf-8")
        text = parse_text.replace(" | allow_nonstandard = true", "")
        assert " | allow_nonstandard = true" not in text
        path = scn(tmp_path, text)
        assert main(["run", str(path)]) == 1
        assert "error:perversity" in capsys.readouterr().out
        assert main(["run", str(path), "--allow-nonstandard-perversity"]) == 0
        capsys.readouterr()

    def test_every_bundled_scenario_runs_clean_on_default_budget(self, capsys):
        for path in sorted(CORPUS.glob("*.scn")):
            code = main(["run", str(path)])
            out = capsys.readouterr().out
            assert code == 0, (path.name, out)
            assert "error" not in out

    def test_subcommands_filter_tasks(self, capsys):
        code = main(["stratify", str(CORPUS / "smooth_blowup_plane.scn")])
        out = capsys.readouterr().out
        assert code == 0
        assert "(1 tasks)" in out and "layout" in out

    def test_json_report_is_deterministic(self, tmp_path, capsys):
        path = str(CORPUS / "smooth_blowup_plane.scn")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", path, "--json", str(a)]) == 0
        assert main(["run", path, "--json", str(b)]) == 0
        capsys.readouterr()
        ra, rb = json.loads(a.read_text(encoding="utf-8")), json.loads(b.read_text(encoding="utf-8"))
        del ra["elapsed_ms"], rb["elapsed_ms"]
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_json_report_shape(self, tmp_path, capsys):
        path = str(CORPUS / "nodal_image.scn")
        out = tmp_path / "r.json"
        assert main(["run", path, "--json", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["scenario"] == "nodal_image"
        assert {"name", "status", "payload", "counters"} <= set(report["tasks"][0])
        assert all(isinstance(t["counters"]["reduction_steps"], int) for t in report["tasks"])
        transform = next(t for t in report["tasks"] if t["name"] == "diag_transform")
        for gens in transform["payload"]["charts"].values():
            assert all(isinstance(g, str) for g in gens)

    def test_empty_input_variety_is_reported_per_task(self, tmp_path, capsys):
        # x = 0 and x = 1 have no common zero; the scenario still validates
        text = (
            "[ring]\nvars = x, y\n[space]\nkind = affine\nrelations = x; x - 1\n"
            "[tower]\ns1: center = x; y\n[strata]\nmain: rules = images\n"
            "[tasks]\nst: kind = stratify | strat = main\n"
            "layout: kind = audit-tower\n"
        )
        path = scn(tmp_path, text)
        assert main(["validate", str(path)]) == 0
        report = tmp_path / "r.json"
        code = main(["run", str(path), "--json", str(report)])
        out = capsys.readouterr().out
        assert code == 1
        assert "error:empty_variety" in out
        rows = {t["name"]: t for t in json.loads(report.read_text(encoding="utf-8"))["tasks"]}
        assert rows["st"]["status"] == "error:empty_variety"
        assert rows["st"]["payload"]["message"] == "input variety is empty"
        assert set(rows) == {"st", "layout"}

    def test_variable_named_like_a_graph_tag(self, tmp_path, capsys):
        # "_b_" tags the input coordinates in the graph construction; a
        # variable "_b_x" collides with the tagged x unless the tag moves
        text = (CORPUS / "affine_quadric_cone.scn").read_text(encoding="utf-8")
        reports = {}
        for name in ("_b_x", "w"):
            path = scn(tmp_path, re.sub(r"\bt\b", name, text), f"{name}.scn")
            out = tmp_path / f"{name}.json"
            assert main(["run", str(path), "--json", str(out)]) == 0
            reports[name] = json.loads(out.read_text(encoding="utf-8"))["tasks"]
        capsys.readouterr()
        assert [t["status"] for t in reports["_b_x"]] == ["ok"] * len(reports["w"])
        for tagged, plain in zip(reports["_b_x"], reports["w"]):
            renamed = re.sub(r"\b_b_x\b", "w", json.dumps(tagged["payload"], sort_keys=True))
            assert renamed == json.dumps(plain["payload"], sort_keys=True)
            assert tagged["counters"] == plain["counters"]


GOLDEN = Path(__file__).resolve().parent / "data" / "corpus_reports.json"


def corpus_reports(folder: Path) -> str:
    """The `run --json` reports of every bundled scenario, keyed by name and
    without their elapsed_ms, as sorted JSON text."""
    reports = {}
    for path in sorted(CORPUS.glob("*.scn")):
        out = folder / f"{path.stem}.json"
        assert main(["run", str(path), "--json", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        del report["elapsed_ms"]
        reports[path.stem] = report
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def test_corpus_reports_match_golden_file(tmp_path, capsys):
    # every payload and every per-task reduction_steps counter of the six
    # bundled scenarios, byte for byte: a change that moves an answer or the
    # kernel's path shows here. Rewrite the file only for an intended change:
    #   PYTHONPATH=src:tests python -c "import pathlib, tempfile, test_scenario_cli as t; \
    #     t.GOLDEN.write_text(t.corpus_reports(pathlib.Path(tempfile.mkdtemp())), encoding='utf-8')"
    assert corpus_reports(tmp_path) == GOLDEN.read_text(encoding="utf-8")
    capsys.readouterr()
