"""Stage timings over a ladder of register sizes, written as one column of a BENCH JSON file.

For each target of TARGETS (select_split's register of 2 to 16 qubits)
the ladder times three stages on their own, each RUNS times after one
warm-up call: gap_profile (POINTS samples, k = 2), run_schedule on the
default schedule, and factor() as a whole (split walk, profile and run).
It records the median and the interquartile range of each stage, with
the products that GapTrace and EvolutionTrace report.  Every column is
stamped with the machine's usable cores, Python, numpy, the BLAS build
and the BLAS thread count.  Unless OPENBLAS_NUM_THREADS is set, it is
set to the usable cores before numpy is imported, as perfbench does.
305 and 481 need 15 and 16 qubits: their rows are skipped, with a note
on stderr, unless ADIAFACT_MAX_QUBITS admits them.  Raising the cap to
16 leaves the registers of the other targets as they are.

One column per checkout: run the script with PYTHONPATH pointing at the
src/ to measure, and name the column; the file keeps the other columns,
and a column's rows for other targets.

    PYTHONPATH=src python tests/ladder.py --column change --into BENCH.json
    PYTHONPATH=src python tests/ladder.py --runs 5 323 121
    ADIAFACT_MAX_QUBITS=16 PYTHONPATH=src python tests/ladder.py 305 481

Without --into the column is printed as JSON.  Timings depend on the
host and its load, so compare columns written on one host; running the
two checkouts target by target, alternating, keeps a drift in the
host's load from landing on one column only.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from adiafact import DimensionTooLarge, Schedule, factor, gap_profile, run_schedule, select_split

TARGETS = (35, 143, 77, 323, 121, 145, 209, 265, 305, 481)
POINTS = 51
RUNS = 5


def stamp() -> dict:
    """The machine and build a column was measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def timed(call, runs: int) -> tuple[dict, object]:
    """Median and interquartile range of runs calls after one warm-up, and the last result."""
    result = call()
    seconds = []
    for _ in range(runs):
        start = perf_counter()
        result = call()
        seconds.append(perf_counter() - start)
    q1, _, q3 = statistics.quantiles(seconds, n=4)
    return {"median_s": statistics.median(seconds), "iqr_s": q3 - q1, "runs": runs}, result


def ladder_row(target: int, runs: int) -> dict:
    """The timed stages of target's register; raises DimensionTooLarge above the qubit cap."""
    problem = select_split(target)[2]
    profile, trace = timed(lambda: gap_profile(problem, Schedule().g, points=POINTS, k=2), runs)
    profile["products"] = trace.products
    evolve, trace = timed(lambda: run_schedule(problem, Schedule()), runs)
    evolve["products"] = trace.products
    whole, result = timed(lambda: factor(target), runs)
    whole["min_gap"] = result.min_gap
    return {"qubits": problem.n, "gap_profile": profile, "run_schedule": evolve, "factor": whole}


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*", type=int, default=list(TARGETS))
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--column", default="column")
    parser.add_argument("--into", type=Path, help="BENCH JSON file to add the column to")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs needs at least 2 runs for an interquartile range")
    rows = {}
    for target in args.targets:
        try:
            rows[str(target)] = ladder_row(target, args.runs)
        except DimensionTooLarge as exc:
            print(f"{target}: skipped, {exc}", file=sys.stderr, flush=True)
            continue
        print(f"{target}: {json.dumps(rows[str(target)])}", file=sys.stderr, flush=True)
    if args.into is None:
        print(json.dumps({"stamp": stamp(), "points": POINTS, "targets": rows}, indent=2))
        return
    document = json.loads(args.into.read_text()) if args.into.exists() else {
        "ladder": "tests/ladder.py", "columns": {}}
    column = document["columns"].setdefault(args.column, {"targets": {}})
    column.update(stamp=stamp(), points=POINTS)
    column["targets"].update(rows)
    args.into.write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
