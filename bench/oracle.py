"""Independent checks on the program's outputs.

Nothing here calls ``f3sum.f3core``.  ``naive_f3`` rebuilds every
coefficient of the triple series from rising factorials and sums the same
shells the engine reports, so a rational value must match the engine
exactly and a float value to within ``FLOAT_REL_LIMIT``.  The ``check_*``
functions take values, not calls, so a perturbed value can be handed to them
directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

FLOAT_REL_LIMIT = 1e-12

# Which of (m1, m2, m3) each family's Pochhammer order sums, as defined by
# the series itself (upstairs, then the mirrored downstairs families).
ORDER = {
    "a": (1, 1, 1), "b": (1, 1, 0), "bp": (0, 1, 1), "bpp": (1, 0, 1),
    "c": (1, 0, 0), "cp": (0, 1, 0), "cpp": (0, 0, 1),
}
MIRROR = {"a": "e", "b": "g", "bp": "gp", "bpp": "gpp", "c": "h", "cp": "hp", "cpp": "hpp"}


def _rising_table(values, top, one):
    """``table[k]`` = product over v of (v)_k, for k = 0..top."""
    table = [one]
    for k in range(top):
        prod = table[-1]
        for v in values:
            prod = prod * (v + k)
        table.append(prod)
    return table


def naive_f3(ps, args, shells):
    """Sum shells 0..shells-1 of the triple series coefficient by coefficient."""
    xs = list(args)
    exact = not any(isinstance(v, float) for v in xs + [v for f in ORDER for v in getattr(ps, f)])
    one = Fraction(1) if exact else 1.0
    top = max(shells - 1, 0)
    up = {f: _rising_table(getattr(ps, f), top, one) for f in ORDER}
    down = {f: _rising_table(getattr(ps, MIRROR[f]), top, one) for f in ORDER}
    powers = []
    for x in xs:
        row = [one]
        for m in range(1, top + 1):
            row.append(row[-1] * x / m)
        powers.append(row)
    total = 0 * one
    for s in range(shells):
        shell = 0 * one
        for m1 in range(s + 1):
            for m2 in range(s - m1 + 1):
                m = (m1, m2, s - m1 - m2)
                num = powers[0][m[0]] * powers[1][m[1]] * powers[2][m[2]]
                den = one
                for f, w in ORDER.items():
                    order = w[0] * m[0] + w[1] * m[1] + w[2] * m[2]
                    num = num * up[f][order]
                    den = den * down[f][order]
                shell = shell + num / den
        total = total + shell
    return total


def check_eval_value(value, reference):
    """(ok, relative error) of one engine value against the naive sum."""
    if isinstance(reference, Fraction):
        return value == reference, (0.0 if value == reference else math.inf)
    rel = abs(value - reference) / max(abs(reference), 1e-300)
    return rel <= FLOAT_REL_LIMIT, rel


def row_verdict(row, exact):
    """``"ok"``, ``"failed"`` or ``"wrong"`` for one suite row.

    A row that does not pass, or an exact row whose residual is not exactly
    0, is a failed op.  It is also a wrong value when both sides converged:
    the check then compared two finished values and they disagree.
    """
    if row["pass"] is True and (not exact or row["residual"] == 0.0):
        return "ok"
    if row["converged_lhs"] and row["converged_rhs"]:
        return "wrong"
    return "failed"
