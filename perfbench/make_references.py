#!/usr/bin/env python3
"""Regenerate references.json from the program in this checkout's src/.

    python3 perfbench/make_references.py

The stored references pin the outputs of the commit the benchmark was
defined at: factor() results for the anneal ladder, the split-walk
outcome of every screen target, and the sweep CSV row of every value
the sweep-small grids can draw.  Regenerate only when a change is meant
to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import (
    ANNEAL_TARGETS, SCREEN_TARGETS, SWEEP_AXES, SWEEP_GRIDS, SWEEP_TARGETS, Screen, SweepSmall,
    sweep_key,
)


def main() -> int:
    run.limit_blas_threads()
    api = run.import_program()
    anneal = {}
    for target in ANNEAL_TARGETS:
        result = api.factor(target)
        anneal[str(target)] = {
            "factors": [result.p, result.q], "mode": result.mode,
            "widths": list(result.widths),
            "success_probability": result.success_probability, "min_gap": result.min_gap,
        }
    screen_workload = Screen(api, {}, 0)
    screen = {str(t): screen_workload.invoke(t)[0] for t in SCREEN_TARGETS}
    sweep_workload = SweepSmall(api, {}, 0)
    sweep = {}
    for target in SWEEP_TARGETS:
        for axis in SWEEP_AXES:
            values = SWEEP_GRIDS[axis]
            code, text, err = sweep_workload.invoke((target, axis, values))
            if code != 0:
                print(f"sweep {target} {axis} failed: {err}", file=sys.stderr)
                return 1
            for value, row in zip(values, text.splitlines()[1:]):
                cells = row.split(",")
                sweep[sweep_key(target, axis, value)] = [float(cells[1]), float(cells[2])]
    with open(run.REFERENCES, "w") as stream:
        json.dump({"anneal": anneal, "screen": screen, "sweep": sweep}, stream, indent=1,
                  sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
