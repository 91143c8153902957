"""From equations to a diagonal penalty operator, and back to factors.

The squared residuals (optionally quadratized down one degree) become a
polynomial whose zeros are exactly the valid factorizations.  Mapping
the free bits onto qubits turns it into a diagonal; the zero-energy
indices decode straight back to p and q.
"""

from adiafact import (
    assemble_problem,
    brute_force_min,
    compile_system,
    decode_assignment,
    ground_manifold,
    polynomial_to_diagonal,
)

system = compile_system(143)

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
print("diagonal energies:", [int(e) for e in diag.energies])
print()

manifold = ground_manifold(diag)
print(f"minimum energy {manifold.energy} at indices {manifold.indices}")
for index in manifold.indices:
    assignment = qmap.assignment_of(index)
    bits = "".join(str(assignment[v]) for v in qmap.variables)
    p, q = decode_assignment(assignment, system)
    print(f"  |{index}> = |{bits}>  ->  p={p}, q={q},  p*q={p * q}")
print()

# exhaustive enumeration agrees with the diagonal, exactly
floor, argmins = brute_force_min(penalty)
indices = tuple(qmap.index_of(a) for a in argmins)
print(f"brute force over all assignments: min {floor} at indices {indices}")
