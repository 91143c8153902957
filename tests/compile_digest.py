"""One hash over the compiler's output for every split of a list or range of targets.

For every target n and every width split of n, the digest takes
in the split, the feasible/infeasible verdict and, for a feasible split,
the compile document (JSON with sorted keys) and the column of each
surviving equation.  The text of an Infeasible message is left out, so a
change that only rewords an explanation keeps the digest.

A change to the propagator that must not change compile output is checked
by printing the digest before and after it:

    PYTHONPATH=src python tests/compile_digest.py          # 9..2047
    PYTHONPATH=src python tests/compile_digest.py 9 255
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Iterable

from adiafact.compiler import build_layout, enumerate_width_splits, simplify, system_to_document
from adiafact.errors import Infeasible


def targets_digest(targets: Iterable[int]) -> tuple[str, int, int]:
    """Return (sha256 hex digest, splits, feasible splits) over the targets, in order."""
    digest = hashlib.sha256()
    splits = feasible = 0
    for n in targets:
        for w_p, w_q in enumerate_width_splits(n):
            splits += 1
            digest.update(f"{n} {w_p} {w_q}\n".encode())
            try:
                system = simplify(build_layout(n, w_p, w_q))
            except Infeasible:
                digest.update(b"infeasible\n")
                continue
            feasible += 1
            digest.update(json.dumps(system_to_document(system), sort_keys=True).encode())
            digest.update(json.dumps([eq.column for eq in system.equations]).encode())
            digest.update(b"\n")
    return digest.hexdigest(), splits, feasible


def compile_digest(lo: int, hi: int) -> tuple[str, int, int]:
    """targets_digest over odd n in [lo, hi]."""
    return targets_digest(range(lo | 1, hi + 1, 2))


def main(argv: list[str]) -> None:
    lo, hi = (int(argv[0]), int(argv[1])) if argv else (9, 2047)
    hexdigest, splits, feasible = compile_digest(lo, hi)
    print(f"{hexdigest}  odd n in {lo}..{hi}: {splits} splits, "
          f"{feasible} feasible, {splits - feasible} infeasible")


if __name__ == "__main__":
    main(sys.argv[1:])
