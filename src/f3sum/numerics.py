"""Scalar arithmetic shared by the series engines.

Two backends are supported and never mixed inside one computation:

* ``float64`` -- ordinary Python floats (IEEE double),
* ``rational`` -- exact ``fractions.Fraction`` values.

Plain ints are neutral: they combine with either backend without changing it.
``classify_backend`` decides which backend a collection of scalars lives in and
raises :class:`~f3sum.errors.BackendMismatchError` on a float/Fraction mix.

The module also provides the rising factorial (Pochhammer symbol), the
truncation policy / result records used by every adaptive summation, and
``adaptive_sum`` itself, the single stall-rule loop the rest of the package
builds on.  It sums an iterator of terms: the shell sums of an ``eval_f3``
walk (an exact walk's as ints over a running denominator), or the outer
k-terms of an identity check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .errors import (
    BackendMismatchError,
    ComplexPowerError,
    InexactPowerError,
    InvalidInputError,
)

Number = Union[int, float, Fraction]
# A term of adaptive_sum: a number, or an int over a running denominator.
Term = Union[Number, Tuple[int, int]]

FLOAT64 = "float64"
RATIONAL = "rational"


def classify_backend(values: Iterable[Number]) -> str:
    """Return the backend a set of scalars belongs to.

    Ints alone count as rational (they are exact).  A mix of float and
    Fraction raises BackendMismatchError: silent promotion of an exact value
    to float (or the reverse) is exactly the bug this guard exists to catch.
    """
    has_float = False
    has_fraction = False
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
            raise BackendMismatchError(f"unsupported scalar type {type(v).__name__}")
        if isinstance(v, float):
            has_float = True
        elif isinstance(v, Fraction):
            has_fraction = True
    if has_float and has_fraction:
        raise BackendMismatchError("float and rational scalars mixed in one computation")
    return FLOAT64 if has_float else RATIONAL


def is_integer_valued(x: Number) -> bool:
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    return float(x).is_integer()


def is_nonpositive_integer(x: Number) -> bool:
    """True when x is an integer <= 0, the Pochhammer termination condition."""
    return is_integer_valued(x) and x <= 0


def exact_div(num: Number, den: Number) -> Number:
    """Divide without leaving the backend.

    int/int must give a Fraction, not a float; any other pair divides with
    ``/``, which keeps a Fraction operand exact and a float operand float.
    """
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def number_pow(base: Number, exponent: Number) -> Number:
    """base ** exponent staying inside the backend.

    Integer exponents are computed exactly in both backends.  Non-integer
    exponents need floats on both sides; a rational base then raises
    InexactPowerError, and a negative base raises ComplexPowerError (the
    result would be complex).
    """
    if is_integer_valued(exponent):
        n = int(exponent)
        if isinstance(base, float):
            return base ** n
        if n < 0:
            return Fraction(base) ** n
        return base ** n
    if isinstance(base, float):
        if base < 0:
            raise ComplexPowerError(f"negative base {base} with non-integer exponent")
        return base ** float(exponent)
    raise InexactPowerError(
        f"exact power needs an integer exponent, got {exponent!r}"
    )


def pochhammer(x: Number, k: int) -> Number:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1.

    Exact for int and Fraction arguments; IEEE for floats.  A Fraction
    ``x = p/q`` with k >= 1 is multiplied out in ints, as
    ``(p (p+q) ... (p+(k-1)q)) / q**k`` with one reduction at the end: the
    same value, type and ``repr`` as the stepwise Fraction product.
    """
    # A bool is an int to isinstance, and True would act as order 1.
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise InvalidInputError(f"pochhammer order must be a non-negative int, got {k!r}")
    if k and isinstance(x, Fraction):
        p, q = x.as_integer_ratio()
        n = p
        for i in range(1, k):
            n *= p + i * q
        return Fraction(n, q**k)
    result: Number = 1
    for i in range(k):
        result = result * (x + i)
    return result


def pochhammer_product(values: Iterable[Number], k: int) -> Number:
    """Product of (v)_k over a parameter family; empty family gives 1."""
    result: Number = 1
    for v in values:
        result = result * pochhammer(v, k)
    return result


@dataclass(frozen=True)
class TruncationPolicy:
    """Stop rule for adaptive summation.

    tol               relative threshold a term must fall below,
    max_total_degree  hard cap on the summation index (shell or outer k),
    stall_window      consecutive below-threshold terms required to stop.
    """

    tol: float = 1e-12
    max_total_degree: int = 28
    stall_window: int = 3

    def __post_init__(self) -> None:
        # An infinite tol has no exact threshold to compare rational terms with.
        if not (0 < self.tol < math.inf):
            raise InvalidInputError(f"tol must be positive and finite, got {self.tol!r}")
        # The cap bounds an islice, and a float window would act rounded up.
        for name in ("max_total_degree", "stall_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidInputError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise InvalidInputError(f"{name} must be >= 1")


@dataclass(frozen=True)
class EvaluationResult:
    """Value of a truncated series plus convergence diagnostics.

    terminated_exactly implies converged: the summation exhausted every
    nonzero term, so the value is the exact (backend-exact) sum.
    """

    value: Number
    shells_used: int
    last_shell_magnitude: float
    converged: bool
    terminated_exactly: bool

    def __post_init__(self) -> None:
        if self.terminated_exactly and not self.converged:
            raise ValueError("terminated_exactly requires converged")


def magnitude_as_float(mag: Number) -> float:
    try:
        return float(mag)
    except OverflowError:
        return math.inf


def below_threshold(mag: Number, reference: Number, tol: float) -> bool:
    """|term| < tol * max(|S|, 1), computed exactly for rational magnitudes.

    A rational comparison stays in ints: with ``tol = t_num / t_den`` it is
    ``m_num * t_den * r_den < t_num * r_num * m_den``, where ``mag`` and the
    clamped reference are ``m_num / m_den`` and ``r_num / r_den``.  Non-finite
    values never count as small, so overflow or NaN can only delay
    convergence, never fake it.
    """
    if isinstance(mag, float) and not math.isfinite(mag):
        return False
    ref = reference if reference > 1 else 1
    if isinstance(mag, float) or isinstance(ref, float):
        if isinstance(ref, float) and not math.isfinite(ref):
            return False
        return mag < tol * ref
    m_num, m_den = mag.as_integer_ratio()
    r_num, r_den = ref.as_integer_ratio()
    t_num, t_den = tol.as_integer_ratio()
    return m_num * t_den * r_den < t_num * r_num * m_den


def adaptive_sum(
    terms: Iterable[Term],
    policy: TruncationPolicy,
    exact_bound: Optional[int] = None,
) -> EvaluationResult:
    """Sum the terms of an iterator under the policy's stall rule.

    Terms are drawn in order, once each, and at most ``limit + 1`` of them
    (the cap, or ``exact_bound`` below it), so no term past the limit is
    ever computed and the result is bitwise reproducible.

    A term is a number, or, from the exact ``eval_f3`` walk, a pair
    ``(n, k)`` of ints: the term ``n / D`` over a running denominator ``D``
    that starts at 1 and that ``k`` multiplies first.  Plain terms may only
    come before the first pair.  The sum is then kept as the int numerator
    ``T`` over ``D`` (``T <- T * k + n``), the stall rule is the exact int
    comparison ``|n| * t_den < t_num * max(|T|, |D|)`` with
    ``tol = t_num / t_den`` (``D`` may be negative, hence ``|D|``), and the
    value becomes one ``Fraction`` at the end: the same result, type
    included, as summing the terms as ``Fraction``s.

    An iterator that ends promises that no later term is nonzero: the sum
    so far is exact and returned converged and terminated_exactly, with
    shells_used and last_shell_magnitude taken from the last term.

    exact_bound, when given, promises that every term past index
    exact_bound is zero.  If the bound fits under the cap, the terms up to it
    are summed in full, or to the iterator's end, and the result is flagged
    terminated_exactly.

    Hitting the cap without satisfying the stall rule leaves converged
    False; the partial sum is still returned.
    """
    exact = exact_bound is not None and exact_bound <= policy.max_total_degree
    limit = exact_bound if exact else policy.max_total_degree
    t_num, t_den = policy.tol.as_integer_ratio()
    total: Number = 0
    den = 1
    streak = 0
    used = 0
    last: Term = 0
    converged = terminated = exact
    for t_k in itertools.islice(terms, limit + 1):
        used += 1
        last = t_k
        if type(t_k) is tuple:
            n, k = t_k
            den *= k
            total = total * k + n
            if exact:
                continue
            small = abs(n) * t_den < t_num * max(abs(total), abs(den))
        else:
            total = total + t_k
            if exact:
                continue
            small = below_threshold(abs(t_k), abs(total), policy.tol)
        if small:
            streak += 1
            if streak >= policy.stall_window:
                converged = True
                break
        else:
            streak = 0
    else:
        # Fewer than limit + 1 terms: the iterator ended, so the sum is complete.
        if used <= limit:
            converged = terminated = True
    if type(last) is tuple:
        total = Fraction(total, den)
        # Int true division rounds as float(Fraction) does, without a gcd.
        try:
            magnitude = abs(last[0]) / abs(den)
        except OverflowError:
            magnitude = math.inf
    else:
        magnitude = magnitude_as_float(abs(last))
    return EvaluationResult(
        value=total,
        shells_used=used,
        last_shell_magnitude=magnitude,
        converged=converged,
        terminated_exactly=terminated,
    )
