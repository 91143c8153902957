"""Spectral gap along the schedule, and how success responds to g, T, M.

The minimal E1 - E0 before the endpoint controls how slowly the
schedule must run; at s = 1 the two factorization states are exactly
degenerate, so the gap there closes by construction.
"""

from adiafact import gap_profile, select_split, sweep

problem = select_split(143)[2]

profile = gap_profile(problem, 0.6, points=21, k=3)
print("three lowest energies along s (21 samples):")
print("      s        E0         E1         E2")
for s, row in zip(profile.s_values, profile.energies):
    print(f"  {s:5.2f}  {row[0]:9.5f}  {row[1]:9.5f}  {row[2]:9.5f}")
print(f"\nminimal gap before s=1: {profile.min_gap:.3e}")
print()

print("total time sweep (M fixed at 20):")
for point in sweep(143, "T", [1.0, 5.0, 10.0, 20.0, 40.0], gap_points=0):
    print(f"  T={point.value:5.1f}  success={point.success_probability:.6f}")
print()

print("step count sweep at T=20:")
for point in sweep(143, "M", [1, 5, 10, 20, 40], gap_points=0):
    print(f"  M={int(point.value):3d}  success={point.success_probability:.6f}")
print()

print("field strength sweep (both endpoints move with g):")
for point in sweep(143, "g", [0.3, 0.6, 1.2], gap_points=21):
    print(
        f"  g={point.value:4.2f}  success={point.success_probability:.6f}"
        f"  min_gap={point.min_gap:.3e}"
    )
