"""Node elimination on a small graph: separators, fill, and cost.

Eliminating a variable connects all of its remaining neighbors into a
clique; edges created this way are fill. The cost of one step is
d_f * (d_f + d_s)^2 with d_f the eliminated variable's dimension and d_s
the summed dimension of its separator, and the cost of an ordering is the
sum over its steps. Ordering matters: the same path graph pays 9 when
swept from a leaf but 14 when the middle is torn out first.
"""

from graphelim import FactorGraph, Kind, elimination_complexity, simulate_elimination

# three scalar poses a, b, c; factors (a, b) and (b, c), flat with offsets
a, b, c = 0, 1, 2
g = FactorGraph([Kind.POSE] * 3, [1, 1, 1], [a, b, b, c], [0, 2, 4])

for ordering in ([a, b, c], [b, a, c]):
    trace = simulate_elimination(g, ordering)
    print(f"ordering {ordering}:")
    for i, step in enumerate(trace.steps):
        fill = ", ".join(f"{u}-{v}" for u, v in step.fill_added) or "none"
        print(
            f"  step {i}: eliminate {step.var_id}, separator {sorted(step.separator)}"
            f" (dim {step.separator_dim}), fill: {fill}"
        )
    print(f"  total cost: {elimination_complexity(g, ordering)}")
    print()

print("Eliminating the middle of a path first induces a fill edge between")
print("its endpoints and pays a larger separator at the first step.")
