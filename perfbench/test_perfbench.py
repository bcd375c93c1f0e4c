"""Tests of the benchmark itself: smoke runs, the correctness gate, the tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import gate
import run
import speed
import tracing

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

from twinphoton import cli, dynamics  # noqa: E402

COUNTS = ("core.terms", "thermal.grid_points", "oracle.evolve_calls")


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def smoke(workload, trace, seed=3):
    result, _ = run.run_workload(workload, seed, seconds=0.2, trace=trace, smoke=True)
    return result


def test_benchmark_json_matches_the_runner():
    bench = benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.SMOKE_WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_end_to_end(workload):
    result = smoke(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_traced_counts_repeat(workload):
    first, second = smoke(workload, trace=True), smoke(workload, trace=True, seed=4)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _, _ in tracing.PER_LAYER]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["core.terms"]["value"] > 0
    if workload == "check":
        assert first["metrics"]["oracle.evolve_calls"]["value"] > 0


def test_traced_counts_match_the_workload():
    metrics = {k: v["value"] for k, v in smoke("sweep-mixed-hot", trace=True)["metrics"].items()}
    spec = run.SMOKE_WORKLOADS["sweep-mixed-hot"]
    assert metrics["core.calls"] == 4  # one kernel pass per pure variant of the mixture
    assert metrics["core.terms"] == 4 * metrics["thermal.grid_points"] * (spec["steps"] + 1)
    assert metrics["negativity.x_calls"] == spec["steps"] + 1
    assert metrics["oracle.evolve_calls"] == 0


def test_missing_wrapper_target_drops_its_metrics(monkeypatch):
    # without active_backend the kernel cannot be identified, so core.* go missing
    monkeypatch.delattr(dynamics, "active_backend")
    result, report = run.run_workload("check", 3, seconds=0.2, trace=True, smoke=True)
    assert result["correct"]
    assert not any(name.startswith("core.") for name in result["metrics"])
    assert "dynamics.sweep_s" in result["metrics"]
    assert any(line.startswith("missing wrapper targets: core") for line in report)


@pytest.mark.parametrize("kind", sorted(speed.PROBES))
def test_gauge_samples_during_a_call_and_restores_the_handler(kind):
    previous = signal.getsignal(signal.SIGALRM)
    gauge = speed.Gauge(kind, period=0.01)
    with gauge.sampling():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(gauge.durations) >= 5
    assert gauge.wall_s >= 0.2 > gauge.in_call_s == pytest.approx(sum(gauge.durations))
    with gauge.sampling():
        pass
    # a block shorter than one period is sampled once after it
    assert len(gauge.durations) == 1 and gauge.in_call_s == 0.0


def test_gauge_normalizes_by_the_mean_speed():
    gauge = speed.Gauge("python")
    reference = speed.PROBES["python"][1]
    # half the samples at reference speed and half at half of it: mean speed 0.75
    gauge.durations = [reference, 2 * reference]
    gauge.wall_s, gauge.in_call_s = 4.5, 0.5
    assert gauge.normalize() == pytest.approx(3.0)


def _sweep_output(tmp_path, spec):
    path = str(tmp_path / "out.csv")
    assert cli.main(run.sweep_argv(spec, path)) == 0
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _edit_row(text, index, edit):
    lines = text.splitlines()
    first = lines.index(gate.CSV_HEADER) + 1
    values = [float(v) for v in lines[first + index].split(",")]
    edit(values)
    lines[first + index] = ",".join(repr(v) for v in values)
    return "\n".join(lines) + "\n"


def test_gate_flags_perturbed_rows(tmp_path):
    spec = run.SMOKE_WORKLOADS["sweep-eg"]
    text = _sweep_output(tmp_path, spec)
    rows = [2, 7, 13]
    gts = [spec["tmax"] * k / spec["steps"] for k in rows]
    ref, ref_tail = gate.reference_rows("eg", None, spec["nbar1"], spec["nbar2"], gts)
    reference = (rows, ref, ref_tail)
    assert gate.sweep_problems(text, spec, reference) == []

    def bump_population(values):
        values[1] += 1e-6

    def swap_middle_populations(values):
        values[2], values[3] = values[3], values[2]

    # a row outside the spot check breaks the trace bound
    problems = gate.sweep_problems(_edit_row(text, 5, bump_population), spec, reference)
    assert any("1 - trace" in p for p in problems)
    # a trace-preserving error is caught by the reference on a spot-checked row
    problems = gate.sweep_problems(_edit_row(text, 7, swap_middle_populations), spec, reference)
    assert problems and all("spot-check" in p for p in problems)


def test_gate_flags_failing_check():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = cli.main(["check", "--cutoff", "4,4", "--steps", "4", "--tol", "1e-30"])
    assert exit_code == 2
    assert gate.check_problems(stdout.getvalue(), exit_code)
    passing = "overall max deviation 3.386e-15 < tol 1e-08: PASS\n"
    assert gate.check_problems(passing, 0) == []
    assert gate.check_problems(passing.replace("3.386e-15", "5.000e-13"), 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
