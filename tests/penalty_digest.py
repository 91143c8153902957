"""One hash over the penalty polynomials and small diagonals of a range of targets.

For every odd n in [lo, hi] and every width split of n that propagation
leaves feasible and unsolved, the digest takes in, under each pairing
("last", "first", "none"), the terms of assemble_problem's polynomial in
their stored order and, for a register of at most DIAGONAL_QUBITS
qubits, the bytes of its diagonal (little-endian int64).  It covers what
compile_digest.py does not: a change to the penalty or to the diagonal
kernel that must not change either is checked by printing this digest
before and after it:

    PYTHONPATH=src python tests/penalty_digest.py          # 9..1023
    PYTHONPATH=src python tests/penalty_digest.py 9 255
"""

from __future__ import annotations

import hashlib
import sys

from adiafact.compiler import build_layout, enumerate_width_splits, simplify
from adiafact.errors import Infeasible
from adiafact.hamiltonian import PAIRINGS, assemble_problem, polynomial_to_diagonal

DIAGONAL_QUBITS = 12


def penalty_digest(lo: int, hi: int) -> tuple[str, int, int]:
    """Return (sha256 hex digest, systems hashed, diagonals hashed) over odd n in [lo, hi]."""
    digest = hashlib.sha256()
    systems = diagonals = 0
    for n in range(lo | 1, hi + 1, 2):
        for w_p, w_q in enumerate_width_splits(n):
            try:
                system = simplify(build_layout(n, w_p, w_q))
            except Infeasible:
                continue
            if system.is_solved:
                continue
            systems += 1
            for pairing in PAIRINGS:
                qmap, penalty = assemble_problem(system, pairing)
                digest.update(f"{n} {w_p} {w_q} {pairing}\n".encode())
                digest.update(repr([(str(m), c) for m, c in penalty.items()]).encode())
                if qmap.n <= DIAGONAL_QUBITS:
                    diagonal = polynomial_to_diagonal(penalty, qmap)
                    digest.update(diagonal.numerators.astype("<i8").tobytes())
                    diagonals += 1
                digest.update(b"\n")
    return digest.hexdigest(), systems, diagonals


def main(argv: list[str]) -> None:
    lo, hi = (int(argv[0]), int(argv[1])) if argv else (9, 1023)
    hexdigest, systems, diagonals = penalty_digest(lo, hi)
    print(f"{hexdigest}  odd n in {lo}..{hi}: {systems} systems, "
          f"{diagonals} diagonals of at most {DIAGONAL_QUBITS} qubits")


if __name__ == "__main__":
    main(sys.argv[1:])
