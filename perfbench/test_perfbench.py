"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

A short run must print every named metric, the reference check must catch
a corrupted reference, and the benchmark must refuse to run without the
package sources.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys

import pytest

import inputs
import probe
import reference
import run
import tracer

sys.path.insert(0, str(run.SRC))


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_short_run_prints_every_end_to_end_metric():
    res = _result(_bench("--workload", "corpus_mix", "--seed", "0", "--seconds", "0", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 26
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert res["metrics"]["reduction_steps"]["value"] == 4316
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_short_traced_run_prints_every_layer_metric():
    proc = _bench("--workload", "groebner_systems", "--seed", "0", "--seconds", "0", "--trace", "1")
    res = _result(proc)
    assert res["correct"] and res["attempted"] == 10
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["ideals.groebner.calls"] == 5
    assert metrics["ideals.max_basis_len"] == 22
    for layer in ("strata.", "geometry.", "factor.", "pairing."):
        assert not any(v for k, v in metrics.items() if k.startswith(layer)), layer
    assert "ideals.groebner" in proc.stdout  # the human-readable table


def _failures(workload: str, seed: int, ref: dict, keep: str) -> list[str]:
    """Check one pass over a single scenario or system against `ref`."""
    work = run.Workload(workload, seed, ref)
    work.setup()
    if workload == "groebner_systems":
        work.systems = {keep: work.systems[keep]}
    else:
        work.paths = {keep: work.paths[keep]}
    attempted, failures = work.check(work.run_pass())
    assert attempted > 0
    return failures


@pytest.mark.parametrize("seed", [0, 5])
def test_reference_check_passes_on_the_stored_reference(seed):
    ref = reference.load()
    assert _failures("corpus_mix", seed, ref, "smooth_blowup_plane") == []
    assert _failures("groebner_systems", seed, ref, "katsura-3") == []


@pytest.mark.parametrize("seed", [0, 5])
def test_corrupted_reference_payload_is_caught(seed):
    ref = copy.deepcopy(reference.load())
    ref["scenarios"]["smooth_blowup_plane"]["avoid_pair"]["payload"]["degree"] += 1
    assert _failures("corpus_mix", seed, ref, "smooth_blowup_plane") == [
        "smooth_blowup_plane/avoid_pair: payload differs from the reference"]


@pytest.mark.parametrize("seed, message", [
    (0, "katsura-3: basis differs from the reference"),
    (5, "katsura-3: basis generates another ideal than the reference"),
])
def test_corrupted_reference_basis_is_caught(seed, message):
    ref = copy.deepcopy(reference.load())
    ref["systems"]["katsura-3"]["basis"][0] += "; 0 0 0 5:1"
    assert _failures("groebner_systems", seed, ref, "katsura-3") == [message]


def test_generator_is_seeded_and_keeps_every_generator():
    corpus = run.SRC / "singpair" / "corpus"
    original = inputs.scenario_texts(corpus, inputs.CORPUS_MIX, 0)
    assert original == {n: (corpus / f"{n}.scn").read_text() for n in inputs.CORPUS_MIX}
    a = inputs.scenario_texts(corpus, inputs.CORPUS_MIX, 7)
    assert a == inputs.scenario_texts(corpus, inputs.CORPUS_MIX, 7)
    assert a != original
    for name in inputs.CORPUS_MIX:
        for old, new in zip(original[name].splitlines(), a[name].splitlines()):
            assert sorted(old.replace(" ", "")) == sorted(new.replace(" ", ""))
            if "expect" in old:  # expected answers are never shuffled
                assert old[old.index("expect"):] == new[new.index("expect"):]


def test_shuffle_touches_only_ideal_fields():
    line = "D: gens = a; b; c | perversity = 0,0 | mult = 1"
    out = inputs.shuffle_scenario(line, random.Random(3))
    assert out.endswith(" | perversity = 0,0 | mult = 1\n")
    assert sorted(out.split("=")[1].split("|")[0].replace(" ", "").split(";")) == ["a", "b", "c"]


def test_layer_metric_names_are_unique_and_complete():
    units = tracer.layer_metric_units()
    assert len(units) == len(_declared()["per_layer"])
    for span in ("strata.jump_candidates", "cli.task", "scenario.workspace_strat"):
        assert f"{span}.self_s" in units


def _katsura3_orders(seed: int) -> set[tuple[str, ...]]:
    """Variable orders of katsura-3 over four passes, each pass checked."""
    work = run.Workload("groebner_systems", seed, reference.load())
    work.setup()
    work.systems = {"katsura-3": work.systems["katsura-3"]}
    passes = [work.run_pass() for _ in range(4)]
    assert all(work.check(p) == (1, []) for p in passes)
    return {p.answers[0][1].names for p in passes}


def test_groebner_passes_draw_fresh_variable_orders():
    assert _katsura3_orders(0) == {tuple(inputs.variables("katsura-3"))}
    assert len(_katsura3_orders(5)) > 1


def test_probe_scales_each_stretch_by_its_kernel_time():
    speed = probe.Probe()
    speed.starts = [0.0, 1.0, 2.0]
    speed.ends = [0.001, 1.001, 2.003]  # the kernel slows from 1 ms to 3 ms
    ref = probe.REFERENCE
    assert speed.scaled(0.001, 1.0) == pytest.approx(0.999 * ref / 0.001)
    assert speed.scaled(0.5, 2.003) == pytest.approx(0.5 * ref / 0.001 + 0.999 * ref / 0.002)
    with pytest.raises(ValueError):
        speed.scaled(0.5, 2.5)


def test_probe_on_a_real_pass_reads_close_to_raw():
    work = run.Workload("corpus_mix", 0, reference.load())
    work.setup()
    with probe.Probe() as speed:
        done = work.run_pass()
    assert len(speed.starts) >= done.wall_s / probe.INTERVAL / 2
    assert 0.2 < speed.scaled(done.start, done.start + done.wall_s) / done.wall_s < 5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "corpus_mix", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
