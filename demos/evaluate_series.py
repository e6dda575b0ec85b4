"""Evaluate the triple series at a few points and read the diagnostics.

The evaluator walks the lattice shell by shell (constant total degree),
reusing each term's predecessor, and stops either when the parameters
terminate the series exactly or when shell magnitudes stall below the
tolerance.  Run:

    python3 demos/evaluate_series.py
"""

from fractions import Fraction

from f3sum import (
    ArgumentTriple,
    DenominatorPoleError,
    ParameterSet,
    TruncationPolicy,
    eval_f3,
)

# One coupled numerator entry: the series collapses to (1 - x1 - x2 - x3)^(-a),
# a closed form we can eyeball.
ps = ParameterSet(a=(1.0,))
args = ArgumentTriple(0.1, 0.1, 0.1)
res = eval_f3(ps, args)
print("geometric check")
print("  value          ", res.value)
print("  closed form    ", 1 / 0.7)
print("  shells used    ", res.shells_used)
print("  converged      ", res.converged)
print()

# A dense set touching all fourteen families.
dense = ParameterSet(
    a=(1.1,), b=(0.7,), bp=(0.9,), bpp=(1.3,),
    c=(0.8,), cp=(1.7,), cpp=(0.6,),
    e=(1.9,), g=(1.2,), gp=(0.5,), gpp=(2.1,),
    h=(1.4,), hp=(0.95,), hpp=(1.6,),
)
res = eval_f3(dense, ArgumentTriple(0.03, -0.02, 0.025))
print("dense fourteen-family point")
print("  value          ", res.value)
print("  shells used    ", res.shells_used)
print("  last shell     ", res.last_shell_magnitude)
print()

# A nonpositive integer in a numerator family terminates the series: with
# c = -2 only lattice points with m1 <= 2 contribute, and exact rational
# arithmetic returns the exact sum.
term = eval_f3(ParameterSet(c=(-2,)), ArgumentTriple(Fraction(1, 2), 0, 0))
print("terminating rational point")
print("  value          ", term.value)
print("  terminated     ", term.terminated_exactly)
print("  shells used    ", term.shells_used)
print()

# Divergence is reported, never papered over: a non-convergent sum runs to
# the degree cap and comes back with converged=False and its partial sum.
runaway = eval_f3(ParameterSet(a=(1.0,)), ArgumentTriple(3.0, 3.0, 3.0))
print("runaway point")
print("  converged      ", runaway.converged)
print("  shells used    ", runaway.shells_used)
print()

# Tighter policies buy accuracy with more shells; impossible tolerances
# fail closed instead of pretending.
tight = eval_f3(
    ParameterSet(a=(1.0,)),
    ArgumentTriple(0.1, 0.1, 0.1),
    TruncationPolicy(tol=1e-300, max_total_degree=28, stall_window=3),
)
print("impossible tolerance")
print("  converged      ", tight.converged)
print()

# A nonpositive integer in a denominator family is a pole once the lattice
# reaches its zero; the evaluator names the offending entry.
try:
    eval_f3(ParameterSet(a=(1.0,), hp=(-1.0,)), ArgumentTriple(0.1, 0.1, 0.1))
except DenominatorPoleError as exc:
    print("pole diagnostics")
    print("  ", exc)
