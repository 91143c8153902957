"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload for one short pass in both modes and checks that
each metric BENCHMARK.json names is emitted with its unit, that a
corrupted reference makes the checks fail, that tracing leaves the
program as it found it, that the screen walk reaches factor()'s outcome,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "ANNEAL_TARGETS": (143, 77),
    "SCREEN_TARGETS": (15, 143, 1763),
    "SWEEP_CALLS": 3,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.fixture(scope="module")
def references():
    return run.load_references()


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny, references, workload, trace):
    measurement, metrics, _ = run.run(workload, 1, 0, trace, references)
    assert measurement.failed == 0, measurement.problems
    assert measurement.attempted >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())


def corrupt(references: dict, workload: str) -> dict:
    bad = copy.deepcopy(references)
    if workload == "anneal":
        bad["anneal"]["143"]["success_probability"] += 1e-6
    elif workload == "screen":
        bad["screen"]["143"]["ground"] = [6]
    else:
        for key in bad["sweep"]:
            bad["sweep"][key][0] += 1e-6
    return bad


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_corrupted_reference_fails_the_check(tiny, references, workload):
    measurement, _, _ = run.run(workload, 1, 0, False, corrupt(references, workload))
    assert measurement.failed >= 1


def test_corrupted_reference_exits_nonzero(tiny, references, tmp_path, monkeypatch, capsys):
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(corrupt(references, "anneal")))
    monkeypatch.setattr(run, "REFERENCES", bad)
    code = run.main(["--workload", "anneal", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_tracing_restores_the_program(tiny, references):
    api = run.import_program()
    originals = {name: getattr(api.orchestrator, name)
                 for name in ("simplify", "build_layout", "run_schedule", "gap_profile")}
    poly_init = api.Poly.__init__
    _, metrics, tracer = run.run("anneal", 1, 0, True, references)
    assert metrics["engine.propagate_step.calls"][0] > 0
    assert metrics["orchestrator.splits_tried"][0] > 0
    assert all(span[2] >= span[1] for span in tracer.spans)
    for name, fn in originals.items():
        assert getattr(api.orchestrator, name) is fn
    assert api.Poly.__init__ is poly_init


def test_seed_fixes_the_inputs():
    def draws(cls, seed):
        workload = cls(None, {}, seed)
        return [workload.pass_inputs() for _ in range(2)]

    for cls in workloads.WORKLOADS.values():
        assert draws(cls, 5) == draws(cls, 5)
        assert draws(cls, 5) != draws(cls, 6)


def test_sweep_values_all_have_references(references):
    sweep = workloads.SweepSmall(None, {}, 0)
    for _ in range(20):
        for target, axis, values in sweep.pass_inputs():
            for value in values:
                assert value in workloads.SWEEP_GRIDS[axis]
                assert workloads.sweep_key(target, axis, value) in references["sweep"]


# Two preprocessed targets, four hand-offs of 2 to 6 qubits, one with no viable split.
@pytest.mark.parametrize("target", [15, 111, 35, 143, 119, 77, 305])
def test_screen_agrees_with_factor(references, target):
    api = run.import_program()
    outcome, _ = workloads.Screen(api, references, 0).invoke(target)
    assert outcome == references["screen"][str(target)]
    if outcome["outcome"] == "none":
        with pytest.raises((api.NotFactorable, api.DimensionTooLarge)):
            api.factor(target, gap_points=0)
        return
    result = api.factor(target, gap_points=0)
    assert list(result.widths) == outcome["widths"]
    if outcome["outcome"] == "preprocessed":
        assert result.mode == "preprocessed"
        assert [result.p, result.q] == sorted(outcome["factors"])
    else:
        assert result.mode == "adiabatic"
        assert list(result.ground_manifold) == outcome["ground"]
        assert len(result.trace.final_populations) == 2 ** outcome["qubits"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    child = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "anneal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
