"""The headline run: drive 143's register through the linear schedule.

Starts in the transverse-field ground state (uniform magnitudes,
alternating signs), applies the M step unitaries, and watches the
population concentrate on the two factorization states.
"""

import numpy as np

from adiafact import (
    Schedule,
    ground_manifold,
    run_schedule,
    select_split,
    success_probability,
)

problem = select_split(143)[2]
manifold = ground_manifold(problem)

schedule = Schedule(g=0.6, T=20.0, M=20, checkpoints=(0, 5, 10, 15, 20))
trace = run_schedule(problem, schedule)

print(f"register: {problem.n} qubits, schedule g={schedule.g} T={schedule.T} M={schedule.M}")
print(f"ground manifold: indices {manifold.indices}\n")

print("population on the manifold as s advances:")
for point in trace.points:
    on_manifold = success_probability(point.populations, manifold)
    bar = "#" * round(50 * on_manifold)
    print(f"  s={point.s:4.2f}  {on_manifold:8.6f}  {bar}")
print()

final = trace.final_populations
print("final distribution (populations above 0.001):")
for index in np.argsort(final)[::-1]:
    if final[index] < 1e-3:
        break
    print(f"  |{index:2d}>  {final[index]:.6f}")

print(f"\ntotal success probability: {success_probability(final, manifold):.6f}")

# a quench for contrast: no time to adapt, the uniform spread survives
quench = run_schedule(problem, Schedule(g=0.6, T=1e-9, M=1))
print(f"instant quench instead:    {success_probability(quench.final_populations, manifold):.6f}")
