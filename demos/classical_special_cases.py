"""Three classical three-variable functions as parameter layouts.

Each classical function is a row of ``LAYOUTS``: the family each of its
parameters fills.  Building the layout and evaluating the triple series
reproduces the classical series definition directly.  Run:

    python3 demos/classical_special_cases.py
"""

import math

from f3sum import (
    LAYOUTS,
    ArgumentTriple,
    check_special_case,
    eval_f3,
    eval_pfq,
    special_params,
)

x = ArgumentTriple(0.04, -0.03, 0.05)

# F_A in three variables: one fully coupled numerator entry, one per-direction
# numerator entry and one per-direction denominator entry.
ps = special_params("fa3", 0.9, 0.6, 1.2, 0.8, 1.7, 1.3, 2.1)
print("F_A layout:", {k: v for k, v in ps.to_json_dict().items()})
print("  value:", eval_f3(ps, x).value)
print()

# F_D shares one denominator entry across all directions.
ps = special_params("fd3", 1.3, 0.7, 0.5, 0.9, 2.1)
print("F_D layout:", {k: v for k, v in ps.to_json_dict().items()})
res = eval_f3(ps, ArgumentTriple(0.2, 0.0, 0.0))
gauss = eval_pfq([1.3, 0.7], [2.1], 0.2)
print("  with x2 = x3 = 0 it is a Gauss series:")
print("  triple engine ", res.value)
print("  2F1 directly  ", gauss.value)
print("  difference    ", abs(res.value - gauss.value))
print()

# H_A couples pairs of directions.
ps = special_params("ha", 0.8, 1.4, 0.6, 1.9, 1.2)
print("H_A layout:", {k: v for k, v in ps.to_json_dict().items()})
print("  value:", eval_f3(ps, x).value)
print()

# Each row also names the registered argument/entry-shift rule that applies
# to the whole function, so every classical function gets a ready-made
# two-sided consistency check.
for kind, values in (
    ("fa3", (0.9, 0.6, 1.2, 0.8, 1.7, 1.3, 2.1)),
    ("fd3", (1.3, 0.7, 0.5, 0.9, 2.1)),
    ("ha", (0.8, 1.4, 0.6, 1.9, 1.2)),
):
    ps = special_params(kind, *values)
    rep = check_special_case(kind, ps, ArgumentTriple(0.02, -0.015, 0.025), 0.1)
    print(f"{kind} ({LAYOUTS[kind].rule}): shift check residual = {rep.residual:.3e}, "
          f"pass = {rep.passed}")
