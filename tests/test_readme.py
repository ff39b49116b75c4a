"""The README's examples, run from the README text itself."""

import json
import re
from pathlib import Path

from singpair.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_scenario_example_validates_and_runs(tmp_path, capsys):
    (text,) = [b for b in fenced("") if b.startswith("[ring]")]
    path = tmp_path / "readme.scn"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "readme.json"
    assert main(["run", str(path), "--json", str(out)]) == 0
    capsys.readouterr()
    (task,) = json.loads(out.read_text(encoding="utf-8"))["tasks"]
    assert task["payload"]["verdict"] == "INCONSISTENT"


def test_library_example_prints_the_minimal_perversity(capsys):
    (code,) = fenced("python")
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "0,0,1\n"
