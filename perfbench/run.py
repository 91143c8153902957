#!/usr/bin/env python3
"""adiafact benchmark: three closed-loop workloads, timed end to end, traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 30 --trace 0

The program is imported from src/ of the same checkout; nothing needs
installing.  One process generates the load: each workload issues its
next call only after the previous one returned.  A run repeats whole
passes over the workload's inputs while another pass still fits in
--seconds (at least one pass), and reports per-pass medians.  Set-up
(import plus warm-up) is timed in fresh interpreters, half of them
before the measured passes and half after, and reported as the median.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
pass, then traced passes in what is left of --seconds (at least one),
and prints the per-layer metrics (see tracer.py); the spans are written
to .perfbench_out/.  A traced run therefore takes up to twice --seconds
when one pass is longer than half of it, as on screen.

Every call's output is checked (see workloads.py).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The exit code is 1 when any check failed and 2 when the
program or the references cannot be loaded (no result line then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
SPANS_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 12  # set-up probes per run, half before the measured passes, half after
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (missing program or references)."""


def limit_blas_threads() -> int:
    """Give OpenBLAS one thread per usable core; must run before numpy is imported.

    The count is always set, whatever the caller's environment holds, so
    a stray OPENBLAS_NUM_THREADS cannot change what a run measures.
    """
    threads = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def import_program():
    """Import adiafact from this checkout's src/, never from anywhere else."""
    package_dir = SRC / "adiafact"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no adiafact sources at {package_dir.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import adiafact
    import adiafact.cli  # the sweep workload drives the CLI entry point

    if Path(adiafact.__file__).resolve().parent != package_dir:
        raise BenchError(f"imported adiafact from {adiafact.__file__}, not from src/")
    return adiafact


def load_references() -> dict:
    try:
        with open(REFERENCES) as stream:
            return json.load(stream)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {REFERENCES.name}: {exc}") from exc


def probe_setup(workload_name: str, seed: int) -> float:
    """Import plus warm-up in this (fresh) interpreter, in seconds."""
    start = perf_counter()
    api = import_program()
    from workloads import WORKLOADS

    WORKLOADS[workload_name](api, {}, seed).warm_up()
    return perf_counter() - start


def setup_probes(workload_name: str, seed: int, count: int) -> list[float]:
    """Set-up times of count fresh child interpreters, run one after another."""
    times = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed: {child.stderr.strip()}")
        times.append(float(child.stdout.split()[-1]))
    return times


class Measurement:
    """Whole passes of one workload: per-pass wall and CPU, per-call latency, problems."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.problems: list[list[str]] = []

    @property
    def failed(self) -> int:
        return len(self.problems)


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Run passes while another one (at the median pass time) fits in seconds; at least one."""
    out = Measurement()
    start = perf_counter()
    while True:
        wall0, cpu0 = perf_counter(), process_time()
        for item in workload.pass_inputs():
            if tracer is not None:
                tracer.call_id += 1
            call0 = perf_counter()
            try:
                result = workload.invoke(item)
            except Exception as exc:  # any raise is a failed call, counted and reported
                out.latencies.append(perf_counter() - call0)
                found = [f"{workload.name} {item!r} raised {type(exc).__name__}: {exc}"]
            else:
                out.latencies.append(perf_counter() - call0)
                found = workload.check(item, result)
            out.attempted += 1
            if found:
                out.problems.append(found)
        out.walls.append(perf_counter() - wall0)
        out.cpus.append(process_time() - cpu0)
        if perf_counter() - start + statistics.median(out.walls) > seconds:
            return out


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(run: Measurement, setup_s: float) -> dict:
    """The bounded metrics of BENCHMARK.json, as name -> (value, unit)."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(run.walls), "s"),
        "cpu_s": (statistics.median(run.cpus), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def printed_only_metrics(run: Measurement) -> dict:
    """End-to-end figures printed beside the bounded ones but not bounded.

    failed_ratio is 0 on a correct program.  The call percentiles swing
    by more than any allowed bound between runs on a shared host
    (README.md gives the measured spreads).
    """
    return {
        "failed_ratio": (run.failed / run.attempted, "ratio"),
        "call_p50_s": (nearest_rank(run.latencies, 0.5), "s"),
        "call_p90_s": (nearest_rank(run.latencies, 0.9), "s"),
    }


def stamp(api, args, blas_threads: int, run: Measurement) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "adiafact": api.__version__,
        "pass_walls_s": [round(w, 4) for w in run.walls],
        "calls": run.attempted,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, references: dict):
    """One benchmark run in this process; returns (measurement, metrics, tracer or None)."""
    api = import_program()
    from tracer import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](api, references, seed)
    if not trace:
        before = setup_probes(workload_name, seed, SETUP_SAMPLES // 2)
        workload.warm_up()
        measurement = measure(workload, seconds)
        after = setup_probes(workload_name, seed, SETUP_SAMPLES - len(before))
        setup_s = statistics.median(before + after)
        return measurement, end_to_end_metrics(measurement, setup_s), None
    workload.warm_up()
    untraced = measure(workload, 0)
    untraced_wall = untraced.walls[0]
    workload.counts.clear()
    tracer = Tracer(api)
    tracer.install()
    try:
        traced = measure(workload, seconds - untraced_wall, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer, len(traced.walls), sum(traced.walls), untraced_wall,
                                workload.counts)
    traced.attempted += untraced.attempted
    traced.problems = untraced.problems + traced.problems
    return traced, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("anneal", "sweep-small", "screen"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    blas_threads = limit_blas_threads()
    sys.path.insert(0, str(BENCH_DIR))
    try:
        if args.probe_setup:
            print(repr(probe_setup(args.workload, args.seed)))
            return 0
        references = load_references()
        measurement, metrics, tracer = run(args.workload, args.seed, args.seconds,
                                           bool(args.trace), references)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    api = sys.modules["adiafact"]
    info = stamp(api, args, blas_threads, measurement)
    if tracer is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", info)
    for found in measurement.problems[:20]:
        print("CHECK FAILED: " + "; ".join(found), file=sys.stderr)
    print("stamp " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    if tracer is None:
        for name, (value, unit) in printed_only_metrics(measurement).items():
            print(f"  {name:<44} {value:>16.6g} {unit} (not bounded)")
    correct = measurement.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
