"""Walk through compiling 143 into its reduced equation system.

Shows the raw multiplication-table columns, then what the fixpoint
propagation leaves behind: three tiny equations over four bits, every
carry variable pinned to a constant.
"""

from adiafact import build_layout, enumerate_width_splits, select_split, simplify

TARGET = 143

print(f"width splits tried for {TARGET}, in order:")
print("  ", enumerate_width_splits(TARGET))
print()

# raw layout at the balanced split: one balance equation per column, stored
# as its residual (left side minus right side); printing an equation moves
# its positive variable terms to the left and everything else to the right,
# so the target bit and the pinned 1*1 products meet as one constant
raw = build_layout(TARGET, 4, 4)
print(f"raw layout at widths (4, 4): {len(raw.equations)} column equations")
for eq in raw.equations:
    note = "   (pinned bits only: always balanced)" if not eq.residual else ""
    print(f"  column {eq.column}:  {eq}{note}")
print()

simplified = simplify(raw)
print(f"after propagation: {len(simplified.equations)} equations remain")
for eq in simplified.equations:
    print(f"  {eq}")
print()

print("carry variables, all forced to constants:")
for var, value in sorted(simplified.fixed.items()):
    print(f"  {var} = {value}")
print()

print("forbidden pairs (both bits cannot be 1 at once):")
for pair in simplified.forbidden_pairs:
    print("  ", " & ".join(str(v) for v in sorted(pair)))
print()

print("free variables left for the quantum register:", end=" ")
print(", ".join(str(v) for v in simplified.variables))

# select_split walks the splits in the order above to the first one whose
# penalty has a zero-energy state; factor and the compile command take it too
system = select_split(TARGET)[0]
assert system.widths == (4, 4)
print(f"\nselect_split({TARGET}) picks widths {system.widths}, the split factor anneals")
