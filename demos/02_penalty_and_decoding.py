"""From equations to a diagonal penalty operator, and back to factors.

The squared residuals (optionally quadratized down one degree) become a
polynomial whose zeros are exactly the valid factorizations.  Mapping
the free bits onto qubits turns it into a diagonal; the zero-energy
indices decode straight back to p and q.
"""

import itertools

from adiafact import (
    assemble_problem,
    decode_assignment,
    ground_manifold,
    polynomial_to_diagonal,
    select_split,
)

system = select_split(143)[0]

for pairing in ("first", "last", "none"):
    _, penalty = assemble_problem(system, pairing=pairing)
    degree = max((len(mono) for mono, _ in penalty.items()), default=0)
    print(f"pairing={pairing!r}: degree {degree}, {len(penalty)} terms")
print()

qmap, penalty = assemble_problem(system, pairing="first")
print("penalty polynomial (pairing='first'):")
print("  ", penalty)
print()

diag = polynomial_to_diagonal(penalty, qmap)
print("qubit order:", ", ".join(str(v) for v in qmap.variables))
print("diagonal energies:", diag.numerators.tolist())
print()

manifold = ground_manifold(diag)
print(f"minimum energy {manifold.energy} at indices {manifold.indices}")
for index in manifold.indices:
    assignment = qmap.assignment_of(index)
    bits = "".join(str(assignment[v]) for v in qmap.variables)
    p, q = decode_assignment(assignment, system)
    print(f"  |{index}> = |{bits}>  ->  p={p}, q={q},  p*q={p * q}")
print()

# evaluating the printed polynomial term by term at every assignment agrees, exactly
terms = list(penalty.items())
values = {}
for bits in itertools.product((0, 1), repeat=qmap.n):
    assignment = dict(zip(qmap.variables, bits))
    value = sum(c for mono, c in terms if all(assignment[v] for v in mono))
    # the basis index reads the bits in qubit order, the first variable on top
    values[int("".join(str(assignment[v]) for v in qmap.variables), 2)] = value
floor = min(values.values())
indices = tuple(sorted(i for i, value in values.items() if value == floor))
print(f"term-by-term evaluation over all assignments: min {floor} at indices {indices}")
