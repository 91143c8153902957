"""How often the propagator evaluates, over every split of a list or range of targets.

compile_digest.py freezes what the propagator returns; these totals
freeze how much work it does to get there.  For every target n and every
width split of n, simplify runs on the layout, and the calls of the
propagator's _apply_rules, _settle, _pass and _probe are counted.  A looser
awake rule or a rule that fires later keeps every output but moves the
totals, so a change to the propagator that must not add work is checked by
printing them before and after it:

    PYTHONPATH=src python tests/evaluation_totals.py          # 9..2047, then LARGE_TARGETS
    PYTHONPATH=src python tests/evaluation_totals.py 9 255    # odd n in 9..255 only

The counts are integers, so unlike the CLI and engine digests they do not
depend on the numpy or BLAS build.
"""

from __future__ import annotations

import sys
from typing import Iterable

from adiafact import compiler
from adiafact.errors import Infeasible

from infeasible_digest import LARGE_TARGETS

COUNTED = ("_apply_rules", "_settle", "_pass", "_probe")


def evaluation_totals(targets: Iterable[int]) -> dict[str, int]:
    """Calls of each COUNTED propagator method while every split of the targets simplifies."""
    counts = dict.fromkeys(COUNTED, 0)
    originals = {name: getattr(compiler._Propagator, name) for name in COUNTED}

    def counted(name, original):
        def wrapper(self, *args):
            counts[name] += 1
            return original(self, *args)
        return wrapper

    try:
        for name, original in originals.items():
            setattr(compiler._Propagator, name, counted(name, original))
        for n in targets:
            for w_p, w_q in compiler.enumerate_width_splits(n):
                try:
                    compiler.simplify(compiler.build_layout(n, w_p, w_q))
                except Infeasible:
                    pass
    finally:
        for name, original in originals.items():
            setattr(compiler._Propagator, name, original)
    return counts


def main(argv: list[str]) -> None:
    if argv:
        lo, hi = int(argv[0]), int(argv[1])
        targets, label = list(range(lo | 1, hi + 1, 2)), f"odd n in {lo}..{hi}"
    else:
        targets = list(range(9, 2048, 2)) + list(LARGE_TARGETS)
        label = "odd n in 9..2047, then " + ", ".join(map(str, LARGE_TARGETS))
    counts = evaluation_totals(targets)
    print("/".join(str(counts[name]) for name in COUNTED)
          + f"  {label}: " + ", ".join(f"{name} {counts[name]}" for name in COUNTED))


if __name__ == "__main__":
    main(sys.argv[1:])
