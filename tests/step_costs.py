"""Measure the two per-register costs behind engine._STEP_COST_MS.

For each register size n the script prints the median cost in
milliseconds of one dense step (interpolated_hamiltonian plus
propagate_step) and of one matrix-free product, measured as a whole
Chebyshev step of about 40 terms divided by its products.  Both run on
one random integer diagonal at s = 0.5 and g = 0.6.  Every size is timed
in each of ROUNDS rounds, so that a slow spell of the host is shared by
all sizes instead of shifting a few of them.  Dense steps above
DENSE_MAX qubits are not run (an eigh of 4096 x 4096 takes seconds and a
few hundred MiB); their cost is extrapolated from the last measured size
at x8 per qubit, the O(8^n) of the eigensolve.

OpenBLAS gets one thread per usable core, as in perfbench/run.py, so the
figures describe the setting the benchmark runs in:

    PYTHONPATH=src python tests/step_costs.py          # 5..14 qubits
    PYTHONPATH=src python tests/step_costs.py 9 10

The output rows are the table's entries, ready to paste.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))

import platform  # noqa: E402
import statistics  # noqa: E402
from functools import partial  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from adiafact.engine import _chebyshev_step, initial_state, propagate_step  # noqa: E402
from adiafact.hamiltonian import (  # noqa: E402
    DiagonalOperator,
    _apply_interpolated,
    interpolated_hamiltonian,
)

DENSE_MAX = 11
S, G = 0.5, 0.6
HALF_WIDTH_TAU = 20.0  # r * tau of the Chebyshev step: about 40 Bessel terms
ROUNDS = 15  # every size is timed once per round, so a change of host state hits all sizes
ROUND_S = 0.1  # time spent on each measurement per round (at least one call)


def timed_ms(run) -> list[float]:
    """Wall times of run() in milliseconds, repeated for ROUND_S (1 to 500 calls)."""
    times = []
    while not times or (sum(times) < ROUND_S and len(times) < 500):
        start = perf_counter()
        run()
        times.append(perf_counter() - start)
    return [1e3 * t for t in times]


def register(n: int) -> DiagonalOperator:
    rng = np.random.default_rng(n)
    return DiagonalOperator(n, rng.integers(0, 100, 1 << n))


def dense_step(problem: DiagonalOperator):
    """One dense step, as run_schedule takes it."""
    state = initial_state(problem.n)
    return lambda: propagate_step(state, interpolated_hamiltonian(S, G, problem), 1.0)


def chebyshev_step(problem: DiagonalOperator):
    """(one Chebyshev step as run_schedule takes it, its product count)."""
    state = initial_state(problem.n)
    lo = S * problem.as_array.min() - (1 - S) * G * problem.n
    hi = S * problem.as_array.max() + (1 - S) * G * problem.n
    tau = 2 * HALF_WIDTH_TAU / (hi - lo)
    apply = partial(_apply_interpolated, S, G, problem)
    products = _chebyshev_step(apply, state, tau, lo, hi)[1]
    return lambda: _chebyshev_step(apply, state, tau, lo, hi), products


def main(argv: list[str]) -> None:
    lo, hi = (int(argv[0]), int(argv[1])) if argv else (5, 14)
    os.environ["ADIAFACT_MAX_QUBITS"] = str(max(hi, 1))
    sizes = range(lo, hi + 1)
    runs = {}
    for n in sizes:
        problem = register(n)
        dense = dense_step(problem) if n <= DENSE_MAX else None
        runs[n] = (dense, *chebyshev_step(problem))
    dense_times = {n: [] for n in sizes}
    product_times = {n: [] for n in sizes}
    for _ in range(ROUNDS):
        for n, (dense, chebyshev, products) in runs.items():
            if dense is not None:
                dense_times[n] += timed_ms(dense)
            product_times[n] += [t / products for t in timed_ms(chebyshev)]
    print(
        f"# {os.environ['OPENBLAS_NUM_THREADS']} OpenBLAS threads, numpy {np.__version__}, "
        f"Python {platform.python_version()}; n: (dense_ms, product_ms), medians"
    )
    dense_ms = float("nan")
    for n in sizes:
        note = ""
        if dense_times[n]:
            dense_ms = statistics.median(dense_times[n])
        else:
            dense_ms, note = dense_ms * 8, "  # dense extrapolated"
        product_ms = statistics.median(product_times[n])
        print(f"    {n}: ({dense_ms:.3g}, {product_ms:.3g}),{note}")


if __name__ == "__main__":
    main(sys.argv[1:])
