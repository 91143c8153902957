"""The compiler's four standing gates, from one walk that simplifies every split once.

    PYTHONPATH=src python tests/gates.py          # the ranges below, as CI runs it
    PYTHONPATH=src python tests/gates.py 9 255    # odd n in 9..255 only, for all four

The first field of each line is one gate; a change that must not move a gate
prints it before and after:
- compile: a hash over every split of odd n in 9..2047, its verdict and, if
  feasible, the compile document (JSON, sorted keys) and the column of each
  surviving equation.  Infeasible text is left out, so rewording keeps it.
- infeasible: a hash over the line "n w_p w_q message" of every infeasible
  split of odd n in 9..2047, then LARGE_TARGETS.
- evaluations: the calls of the propagator's COUNTED methods over the same
  splits.  A looser awake rule keeps every output but moves them.
- penalty: a hash over every feasible, unsolved split of odd n in 9..1023
  under each pairing: assemble_problem's terms in stored order and, up to
  DIAGONAL_QUBITS qubits, its diagonal as little-endian int64.

Every value is an integer or a hash of exact output, so unlike the CLI and
engine digests the gates do not depend on the numpy or BLAS build.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Iterable

from adiafact import compiler
from adiafact.errors import Infeasible
from adiafact.hamiltonian import PAIRINGS, assemble_problem, polynomial_to_diagonal

# the screen workload's large targets, walked after the default range
LARGE_TARGETS = (1763, 10403, 30227, 1046527)
COUNTED = ("_apply_rules", "_settle", "_pass", "_probe")
DIAGONAL_QUBITS = 12


@dataclass
class Gates:
    compile: tuple[str, int, int]  # (sha256 hex digest, splits, feasible splits)
    infeasible: tuple[str, int]  # (sha256 hex digest, messages hashed)
    evaluations: dict[str, int]  # calls of each COUNTED propagator method
    penalty: tuple[str, int, int]  # (sha256 hex digest, systems hashed, diagonals hashed)


def walk(targets: Iterable[int], more: Iterable[int] = (), penalty_hi: int = 0) -> Gates:
    """Simplify every split of targets, then of more, once each, and feed the four gates.

    compile and penalty take in targets only, penalty only its n <= penalty_hi
    (none by default); infeasible and evaluations take in targets, then more.
    Nothing is cached, so a walk under a patched propagator simplifies again.
    """
    compiled, messages, penalties = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    splits = feasible = infeasible = systems = diagonals = 0
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
        for n, first in [(n, True) for n in targets] + [(n, False) for n in more]:
            for w_p, w_q in compiler.enumerate_width_splits(n):
                split = f"{n} {w_p} {w_q}"
                if first:
                    splits += 1
                    compiled.update(f"{split}\n".encode())
                try:
                    system = compiler.simplify(compiler.build_layout(n, w_p, w_q))
                except Infeasible as exc:
                    messages.update(f"{split} {exc}\n".encode())
                    infeasible += 1
                    if first:
                        compiled.update(b"infeasible\n")
                    continue
                if not first:
                    continue
                feasible += 1
                compiled.update(json.dumps(compiler.system_to_document(system), sort_keys=True).encode())
                compiled.update(json.dumps([eq.column for eq in system.equations]).encode())
                compiled.update(b"\n")
                if n > penalty_hi or system.is_solved:
                    continue
                systems += 1
                for pairing in PAIRINGS:
                    qmap, penalty = assemble_problem(system, pairing)
                    penalties.update(f"{split} {pairing}\n".encode())
                    penalties.update(repr([(str(m), c) for m, c in penalty.items()]).encode())
                    if qmap.n <= DIAGONAL_QUBITS:
                        diagonal = polynomial_to_diagonal(penalty, qmap)
                        penalties.update(diagonal.numerators.astype("<i8").tobytes())
                        diagonals += 1
                    penalties.update(b"\n")
    finally:
        for name, original in originals.items():
            setattr(compiler._Propagator, name, original)
    return Gates((compiled.hexdigest(), splits, feasible), (messages.hexdigest(), infeasible),
                 counts, (penalties.hexdigest(), systems, diagonals))


def main(argv: list[str]) -> None:
    if argv:
        lo, hi = int(argv[0]), int(argv[1])
        gates = walk(range(lo | 1, hi + 1, 2), penalty_hi=hi)
        walked = then_more = penalized = f"odd n in {lo}..{hi}"
    else:
        gates = walk(range(9, 2048, 2), LARGE_TARGETS, penalty_hi=1023)
        walked, penalized = "odd n in 9..2047", "odd n in 9..1023"
        then_more = f"{walked}, then " + ", ".join(map(str, LARGE_TARGETS))
    digest, splits, feasible = gates.compile
    print(f"{digest}  {walked}: {splits} splits, {feasible} feasible, {splits - feasible} infeasible")
    digest, messages = gates.infeasible
    print(f"{digest}  {then_more}: {messages} Infeasible messages")
    counts = gates.evaluations
    print("/".join(str(counts[name]) for name in COUNTED)
          + f"  {then_more}: " + ", ".join(f"{name} {counts[name]}" for name in COUNTED))
    digest, systems, diagonals = gates.penalty
    print(f"{digest}  {penalized}: {systems} systems, "
          f"{diagonals} diagonals of at most {DIAGONAL_QUBITS} qubits")


if __name__ == "__main__":
    main(sys.argv[1:])
