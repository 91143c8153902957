"""One hash over the engine's spectra and evolutions on registers of 2 to 14 qubits.

For each target in TARGETS the digest takes select_split's register and
takes in, for every field strength g in FIELDS, gap_profile's energies,
min_gap and products (POINTS samples, k = 2), and, for every (T, M) in
SCHEDULES at that g, run_schedule's final state, the step and
populations of each checkpoint, norm_drift and products.  The registers
of 9 qubits and more run the filtered samples and the Chebyshev steps,
12 to 14 qubits included, which cli_digest.py does not reach.  A change
to the engine that must not move any of these bits is checked by
printing the digest before and after it:

    PYTHONPATH=src python tests/engine_digest.py
    PYTHONPATH=src python tests/engine_digest.py 323 121

The floats are hashed as their bytes, whose last bits depend on the
numpy and BLAS build, so compare hashes made on one machine with one
numpy and BLAS; the hash is not a fixed constant for every build.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from adiafact import Schedule, gap_profile, run_schedule, select_split

TARGETS = (35, 143, 3599, 77, 295, 511, 323, 121, 145, 209, 265)
FIELDS = (0.3, 0.6, 1.1)
SCHEDULES = ((20.0, 20), (40.0, 5), (7.0, 33))
POINTS = 11


def engine_digest(targets=TARGETS) -> tuple[str, int, int]:
    """Return (sha256 hex digest, profiles hashed, runs hashed) over the targets, in order."""
    digest = hashlib.sha256()
    profiles = runs = 0
    for target in targets:
        problem = select_split(target)[2]
        for g in FIELDS:
            trace = gap_profile(problem, g, points=POINTS, k=2)
            profiles += 1
            digest.update(f"{target} {problem.n} g={g!r} {trace.min_gap!r} {trace.products}\n".encode())
            digest.update(np.ascontiguousarray(trace.energies).tobytes())
            for T, M in SCHEDULES:
                evolution = run_schedule(problem, Schedule(g=g, T=T, M=M))
                runs += 1
                digest.update(f"T={T!r} M={M} {evolution.norm_drift!r} {evolution.products}\n".encode())
                digest.update(evolution.final_state.tobytes())
                for point in evolution.points:
                    digest.update(f"{point.step}\n".encode() + point.populations.tobytes())
    return digest.hexdigest(), profiles, runs


def main(argv: list[str]) -> None:
    targets = tuple(int(a) for a in argv) or TARGETS
    hexdigest, profiles, runs = engine_digest(targets)
    print(f"{hexdigest}  {profiles} profiles and {runs} runs on {', '.join(map(str, targets))}")


if __name__ == "__main__":
    main(sys.argv[1:])
