"""One hash over the text of every Infeasible message of a list or range of targets.

compile_digest.py leaves the messages out on purpose; this digest holds
them.  For every target n and every width split of n that propagation
finds infeasible, it takes in the line "n w_p w_q message".  A change to
the compiler that must not reword an explanation is checked by printing
the digest before and after it:

    PYTHONPATH=src python tests/infeasible_digest.py          # 9..2047, then LARGE_TARGETS
    PYTHONPATH=src python tests/infeasible_digest.py 9 255    # odd n in 9..255 only
"""

from __future__ import annotations

import hashlib
import sys
from typing import Iterable

from adiafact.compiler import build_layout, enumerate_width_splits, simplify
from adiafact.errors import Infeasible

# the screen workload's large targets, hashed after the default range
LARGE_TARGETS = (1763, 10403, 30227, 1046527)


def messages_digest(targets: Iterable[int]) -> tuple[str, int]:
    """Return (sha256 hex digest, messages hashed) over the targets, in order."""
    digest = hashlib.sha256()
    messages = 0
    for n in targets:
        for w_p, w_q in enumerate_width_splits(n):
            try:
                simplify(build_layout(n, w_p, w_q))
            except Infeasible as exc:
                digest.update(f"{n} {w_p} {w_q} {exc}\n".encode())
                messages += 1
    return digest.hexdigest(), messages


def main(argv: list[str]) -> None:
    if argv:
        lo, hi = int(argv[0]), int(argv[1])
        targets, label = list(range(lo | 1, hi + 1, 2)), f"odd n in {lo}..{hi}"
    else:
        targets = list(range(9, 2048, 2)) + list(LARGE_TARGETS)
        label = "odd n in 9..2047, then " + ", ".join(map(str, LARGE_TARGETS))
    hexdigest, messages = messages_digest(targets)
    print(f"{hexdigest}  {label}: {messages} Infeasible messages")


if __name__ == "__main__":
    main(sys.argv[1:])
