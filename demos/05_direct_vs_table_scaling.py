"""Why compile a table at all: spectral range of the two encodings.

The direct cost (N - x*y)^2 spans energies that grow with N squared,
while the table scheme's penalty stays bounded by the column structure,
so its range grows only with the bit width.  Narrow spectra are what
keep the required evolution time on the desk.
"""

from adiafact import direct_cost_diagonal, select_split

print(f"{'N':>5} {'direct max':>12} {'table max':>10} {'ratio':>10}")
for target in (15, 35, 143, 323):
    system, _, table = select_split(target)
    direct = direct_cost_diagonal(target, *system.widths)
    if table is None:
        # propagation solved it outright; the table "spectrum" is trivial
        print(f"{target:5d} {int(direct.max_energy()):12d} {'solved':>10}")
        continue
    ratio = direct.max_energy() / table.max_energy()
    print(
        f"{target:5d} {int(direct.max_energy()):12d} {int(table.max_energy()):10d}"
        f" {float(ratio):10.1f}"
    )

print()
print("the 143 instance in numbers:")
direct = direct_cost_diagonal(143, 4, 4)
table = select_split(143)[2]
print(f"  direct encoding: {direct.n} qubits, max energy {int(direct.max_energy())}")
print(f"  table scheme:    {table.n} qubits, max energy {int(table.max_energy())}")
