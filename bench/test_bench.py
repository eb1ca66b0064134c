"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    out = _bench(ROOT, "--workload", "pairs", "--seed", "1", "--seconds", "0.5",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "pairs", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_inputs_are_fixed_by_the_seed():
    mods = workloads.layer_modules()
    for workload, cycle in workloads.CYCLES.items():
        for i in range(len(cycle)):
            first = workloads.make_op(workload, 7, i, mods)
            assert first.text == workloads.make_op(workload, 7, i, mods).text
            assert first.text != workloads.make_op(workload, 8, i, mods).text


def _snapshot(mods):
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_tracing_leaves_qcorr_unpatched():
    mods = workloads.layer_modules()
    modules = list(mods.values()) + [sys.modules["qcorr"]]
    before = _snapshot(modules)
    qm = mods["quantumness"]
    op = workloads.make_op("pairs", 0, 0, mods)
    tracer = tracing.Tracer()
    with tracing.patched(tracer, mods.values()):
        assert qm.lift_unitary is not before[(qm.__name__, "lift_unitary")]
        _, failures = run.run_ops([op], float("inf"), mods, tracer)
    assert not failures
    assert tracing.layer_metrics(tracer)["lift.calls"][0] > 0
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer(), mods.values()):
            raise RuntimeError("body fails")
    after = _snapshot(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("index", [0, 1])  # pure (2,2,B); pure (4,2,F) with closed form
def test_perturbed_answer_counts_as_failed(monkeypatch, index):
    mods = workloads.layer_modules()
    qm = mods["quantumness"]
    ops = [workloads.make_op("pairs", 0, index, mods)]
    assert run.run_ops(ops, float("inf"), mods)[1] == []

    exact = qm.quantumness

    def perturbed(*args, **kwargs):
        report = exact(*args, **kwargs)
        return dataclasses.replace(report, q_value=report.q_value + 1e-3)

    monkeypatch.setattr(qm, "quantumness", perturbed)
    latencies, failures = run.run_ops(ops, float("inf"), mods)
    assert len(latencies) == 1 and len(failures) == 1


def test_raising_op_counts_as_failed(monkeypatch):
    mods = workloads.layer_modules()
    ops = [workloads.make_op("routes", 0, 0, mods)]

    def broken(*args, **kwargs):
        raise ValueError("broken protocol")

    monkeypatch.setattr(mods["activation"], "run_protocol", broken)
    _, failures = run.run_ops(ops, float("inf"), mods)
    assert len(failures) == 1 and "broken protocol" in failures[0][1][0]
