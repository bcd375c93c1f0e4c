#!/usr/bin/env python3
"""Benchmark of the twinphoton command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-eg --seed 1 --seconds 30 --trace 0

One client calls ``twinphoton.cli.main(argv)`` back to back in this process
(a closed loop), with output going to a file, and gates every invocation for
correctness (see gate.py).  Times are normalized for the host's speed during
each call (see speed.py).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced invocations and reports the
per-layer split (see tracing.py).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The argv of each workload is fixed; the seed picks the spot-checked rows.
WORKLOADS = {
    # figure-1 curve: 46x46 grid x 1001 times, one kernel pass, 1001 output rows
    "sweep-eg": {"initial": "eg", "lam": None, "nbar1": 1.0, "nbar2": 1.0, "tmax": 10.0, "steps": 1000},
    # (nbar, lambda) scan point: 116x374 grid x 11 times, four kernel passes
    "sweep-mixed-hot": {
        "initial": "mixed", "lam": 0.05, "nbar1": 3.0, "nbar2": 10.0, "tmax": 10.0, "steps": 10,
    },
    # closed form vs dense oracle on a 676-dimensional space, four states
    "check": {"check": []},
}

# tiny inputs on the same code paths, for the benchmark's own tests
SMOKE_WORKLOADS = {
    "sweep-eg": {"initial": "eg", "lam": None, "nbar1": 0.2, "nbar2": 0.2, "tmax": 10.0, "steps": 20},
    "sweep-mixed-hot": {
        "initial": "mixed", "lam": 0.05, "nbar1": 0.2, "nbar2": 0.5, "tmax": 10.0, "steps": 4,
    },
    "check": {"check": ["--cutoff", "4,4", "--steps", "4"]},
}

# the speed probe (see speed.py) shaped like each workload's hot path
PROBE_KIND = {"sweep-eg": "python", "sweep-mixed-hot": "python", "check": "blas"}

END_TO_END = [
    ("norm_wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

SETUP_RUNS = 7
SPOT_CHECK_ROWS = 3
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# run in a fresh interpreter, with the directory of speed.py as its argument
_IMPORT_TIMER = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import speed\n"
    "gauge = speed.Gauge('python', speed.SETUP_PERIOD_S)\n"
    "with gauge.sampling():\n"
    "    import twinphoton.cli\n"
    "print(repr(gauge.wall_s), repr(gauge.normalize()))\n"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def import_seconds():
    """(wall, normalized) time a fresh interpreter takes to import twinphoton.cli."""
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, HERE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    wall, normalized = res.stdout.strip().splitlines()[-1].split()
    return float(wall), float(normalized)


def sweep_argv(spec, out_path):
    argv = ["sweep", "--initial", spec["initial"]]
    if spec["lam"] is not None:
        argv += ["--lambda", repr(spec["lam"])]
    argv += [
        "--nbar1", repr(spec["nbar1"]), "--nbar2", repr(spec["nbar2"]),
        "--tmax", repr(spec["tmax"]), "--steps", str(spec["steps"]), "--out", out_path,
    ]
    return argv


class Client:
    """Invokes the CLI on one workload and gates every output."""

    def __init__(self, spec, seed, workdir):
        import gate
        from twinphoton import cli

        self.cli = cli
        self.gate = gate
        self.spec = spec
        self.is_sweep = "check" not in spec
        self.stdout_path = os.path.join(workdir, "stdout.txt")
        if self.is_sweep:
            self.out_path = os.path.join(workdir, "out.csv")
            self.argv = sweep_argv(spec, self.out_path)
            self.spot_rows = sorted(
                random.Random(seed).sample(range(spec["steps"] + 1), SPOT_CHECK_ROWS)
            )
        else:
            self.out_path = self.stdout_path
            self.argv = ["check", *spec["check"]]
            self.spot_rows = None
        self.reference = None
        self.peak_rss_mb = None
        self.first_output = None
        self.attempted = 0
        self.failed = 0

    def invoke(self, gauge=None) -> float:
        """One gated call of cli.main; returns its wall time in seconds.

        With a gauge, the host's speed is sampled during the call.
        """
        exit_code = None
        sampling = gauge.sampling() if gauge else contextlib.nullcontext()
        with open(self.stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            with sampling:
                start = time.perf_counter()
                try:
                    exit_code = self.cli.main(self.argv)
                except Exception:
                    traceback.print_exc()
                finally:
                    elapsed = time.perf_counter() - start
        if self.peak_rss_mb is None:
            # before the gate allocates: the peak of a process that ran one invocation
            # (ru_maxrss is in KiB on Linux)
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with open(self.out_path, "rb") as fh:
            output = fh.read()
        self._record(exit_code, output)
        return elapsed

    def _record(self, exit_code, output):
        text = output.decode("utf-8", errors="replace")
        if self.is_sweep:
            if self.reference is None:
                spec = self.spec
                gts = [spec["tmax"] * k / spec["steps"] for k in self.spot_rows]
                ref, ref_tail = self.gate.reference_rows(
                    spec["initial"], spec["lam"], spec["nbar1"], spec["nbar2"], gts
                )
                self.reference = (self.spot_rows, ref, ref_tail)
            problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
            problems += self.gate.sweep_problems(text, self.spec, self.reference)
            if self.first_output is None:
                self.first_output = output
            elif output != self.first_output:
                problems.append("output differs from this run's first invocation")
        else:
            problems = self.gate.check_problems(text, exit_code)
            if self.first_output is None:
                self.first_output = output
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"invocation {self.attempted} failed the gate: {'; '.join(problems)}",
                  file=sys.stderr)

    def grid_line(self) -> str:
        """The line of the first output that names the grid and its tail bound."""
        lines = (self.first_output or b"").decode("utf-8", errors="replace").splitlines()
        marker = "# fock cutoff" if self.is_sweep else "truncation"
        return next((line for line in lines if marker in line), "")


def closed_loop(invoke, seconds, min_samples=1):
    """Call invoke() back to back; stop before the next call would overrun."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(invoke())
        elapsed = time.perf_counter() - start
        if len(samples) >= min_samples and elapsed + statistics.median(samples) > seconds:
            return samples


def summary(samples):
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    listed = ", ".join(f"{x:.4g}" for x in samples)
    return f"median of n={len(samples)}, p25 {q1:.6g}, p75 {q3:.6g}; samples {listed}"


def end_to_end(client, seconds, setup_runs, probe_kind):
    setup_walls, setup = zip(*(import_seconds() for _ in range(setup_runs)))
    client.invoke()  # warm-up
    gauge = speed.Gauge(probe_kind)
    walls, normalized = [], []

    def gauged():
        walls.append(client.invoke(gauge))
        normalized.append(gauge.normalize())
        return walls[-1]

    closed_loop(gauged, seconds)
    metrics = {
        "norm_wall_s": statistics.median(normalized),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": client.peak_rss_mb,
    }
    notes = {
        "norm_wall_s": f"{summary(normalized)}; raw wall {summary(walls)}",
        "setup_s": f"{summary(setup)}; raw wall {summary(setup_walls)}",
        "peak_rss_mb": "n=1",
    }
    return metrics, notes


def per_layer(client, seconds):
    targets, missing = tracing.find_targets()
    client.invoke()  # warm-up
    traced, untraced, layers = [], [], []

    def alternate():
        if len(traced) > len(untraced):
            untraced.append(client.invoke())
            return untraced[-1]
        tracer = tracing.Tracer(targets)
        with tracer.installed():
            traced.append(client.invoke())
        layers.append(tracer.layer_metrics(missing))
        return traced[-1]

    closed_loop(alternate, seconds, min_samples=2)
    metrics = tracing.median_metrics(layers)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    notes = {name: f"median of n={len(layers)} traced" for name in metrics}
    notes["trace.overhead_s"] = f"n={len(traced)} traced, n={len(untraced)} untraced"
    if missing:
        notes["missing"] = sorted(missing)
    return metrics, notes


def provenance(workload, seed, client):
    import numpy
    from twinphoton import dynamics

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    backend = getattr(dynamics, "active_backend", lambda: "unknown")()
    return {
        "workload": workload,
        "seed": seed,
        "argv": client.argv,
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES},
        "grid": client.grid_line(),
        "spot_check_rows": client.spot_rows,
        "error_rate": client.failed / max(client.attempted, 1),
    }


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result object, report lines)."""
    spec = (SMOKE_WORKLOADS if smoke else WORKLOADS)[workload]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        client = Client(spec, seed, workdir)
        if trace:
            metrics, notes = per_layer(client, seconds)
            table = tracing.PER_LAYER
        else:
            metrics, notes = end_to_end(
                client, seconds, 1 if smoke else SETUP_RUNS, PROBE_KIND[workload]
            )
            table = END_TO_END
        prov = provenance(workload, seed, client)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = [
        f"workload {workload} (seed {seed}): {client.attempted} invocations,"
        f" {client.failed} failed, error_rate {prov['error_rate']:g}"
    ]
    units = {name: unit for name, unit, _ in table if name in metrics}
    report += [f"{name} = {metrics[name]!r} {unit} ({notes[name]})" for name, unit in units.items()]
    if trace:
        report += layer_shares(metrics)
        if "missing" in notes:
            report.append(f"missing wrapper targets: {', '.join(notes['missing'])}")
    report.append("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, report


def layer_shares(metrics):
    """Share of the traced cli.main time spent in the kernel and in the oracle."""
    parts = {
        "core": ("core.thermal_sweep_s",),
        "oracle": ("oracle.propagator_s", "oracle.evolve_s", "oracle.thermal_sweep_self_s"),
    }
    total = metrics.get("cli.main_s")
    return [
        f"share of cli.main_s in {name}: {100.0 * sum(metrics[k] for k in keys) / total:.2f} %"
        for name, keys in parts.items()
        if total and all(k in metrics for k in keys)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twinphoton", "cli.py")):
        print(f"perfbench: no twinphoton sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread keeps the whole load on one core.  numpy reads the
    # thread count once, when it is first imported.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
