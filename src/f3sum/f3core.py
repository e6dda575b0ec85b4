"""Series engines: the triple hypergeometric sum and its 1-D cousin.

``eval_f3`` sums the three-index series

    sum over m1,m2,m3 >= 0 of  L(m1,m2,m3) x1^m1 x2^m2 x3^m3 / (m1! m2! m3!)

where the coefficient ``L`` is the Pochhammer ratio described in
:mod:`f3sum.params`.  Terms are visited shell by shell (constant m1+m2+m3),
each term derived from a neighbour in the previous shell by a one-step
recurrence, so a shell costs one multiply-divide per lattice point instead of
a full coefficient rebuild.

Truncation follows :class:`~f3sum.numerics.TruncationPolicy`: once the shell
magnitude stays below tol * max(|sum|, 1) for ``stall_window`` shells in a
row, the sum stops and reports converged.  When upstairs parameters or zero
arguments cut the support down to finitely many lattice points the engine
instead runs off the end of the support and reports an exact, backend-exact
value (``terminated_exactly``).

``eval_pfq`` is the ordinary generalized hypergeometric series under the same
policy, used as an independent reference for the closed-form summation lemmas.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .errors import DenominatorPoleError, NotConvergedError
from .numerics import (
    EvaluationResult,
    Number,
    TruncationPolicy,
    adaptive_sum,
    below_threshold,
    classify_backend,
    exact_div,
    magnitude_as_float,
    pochhammer_product,
)
from .params import (
    DENOMINATOR_FAMILIES,
    NUMERATOR_FAMILIES,
    ParameterSet,
    combo_degree,
    families_along,
    in_support,
    numerator_bounds,
    parse_number,
    termination_bound,
)

DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class ArgumentTriple:
    """The three series arguments."""

    x1: Number
    x2: Number
    x3: Number

    def __iter__(self):
        return iter((self.x1, self.x2, self.x3))

    def to_list(self) -> List[Number]:
        return [self.x1, self.x2, self.x3]


def arguments_from_json(raw: Sequence, backend: str) -> ArgumentTriple:
    if isinstance(raw, (str, bytes)) or len(raw) != 3:
        raise ValueError("arguments must be a list of exactly three scalars")
    x1, x2, x3 = (parse_number(v, backend) for v in raw)
    return ArgumentTriple(x1, x2, x3)


def lambda_coeff(ps: ParameterSet, m1: int, m2: int, m3: int) -> Number:
    """Series coefficient L(m1, m2, m3): upstairs Pochhammer products over
    downstairs ones.  Raises DenominatorPoleError when a downstairs product
    vanishes, since the ratio is undefined there."""
    for m in (m1, m2, m3):
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"lattice indices must be non-negative ints, got {m!r}")
    num: Number = 1
    for name in NUMERATOR_FAMILIES:
        num = num * pochhammer_product(ps.family(name), combo_degree(name, m1, m2, m3))
    den: Number = 1
    for name in DENOMINATOR_FAMILIES:
        den = den * pochhammer_product(ps.family(name), combo_degree(name, m1, m2, m3))
    if den == 0:
        raise DenominatorPoleError(
            f"downstairs Pochhammer product vanishes at ({m1}, {m2}, {m3})"
        )
    return exact_div(num, den)


# Families whose Pochhammer order steps along each lattice direction,
# split into (upstairs, downstairs).
_DIRECTION_FAMILIES = tuple(families_along(d) for d in range(3))


def eval_f3(
    ps: ParameterSet,
    args: ArgumentTriple,
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    strict: bool = False,
) -> EvaluationResult:
    """Sum the triple series at ``args`` under ``policy``.

    Parameters and arguments must share one arithmetic backend.  With
    ``strict`` set, failing to converge within the degree cap raises
    NotConvergedError instead of returning a partial sum.
    """
    classify_backend(ps.all_entries() + args.to_list())
    xs = args.to_list()
    bounds = numerator_bounds(ps)
    zero_dir = tuple(x == 0 for x in xs)

    def in_region(m1: int, m2: int, m3: int) -> bool:
        if (zero_dir[0] and m1) or (zero_dir[1] and m2) or (zero_dir[2] and m3):
            return False
        return in_support(bounds, m1, m2, m3)

    def step(point: Tuple[int, int, int], prev_value: Number, direction: int) -> Number:
        # Advance the cached term one lattice step: every family whose order
        # moves with this direction contributes one fresh linear factor.
        num_fams, den_fams = _DIRECTION_FAMILIES[direction]
        num: Number = prev_value * xs[direction]
        for name in num_fams:
            order = combo_degree(name, *point)
            for v in ps.family(name):
                num = num * (v + order)
        den: Number = point[direction] + 1
        for name in den_fams:
            order = combo_degree(name, *point)
            for j, v in enumerate(ps.family(name), start=1):
                factor = v + order
                if factor == 0:
                    raise DenominatorPoleError(
                        f"downstairs entry {name}[{j}] = {v!r} vanishes at "
                        f"Pochhammer order {order + 1}"
                    )
                den = den * factor
        return exact_div(num, den)

    finite = [b for b in bounds.values() if b is not None]
    monitor_start = 1 + (max(finite) if finite else 0)

    total: Number = 0
    streak = 0
    shells_summed = 0
    last_mag: Number = 0
    converged = False
    terminated = False
    recent: deque = deque(maxlen=policy.stall_window + 1)
    prev_terms: Dict[Tuple[int, int, int], Number] = {}

    for s in range(policy.max_total_degree + 1):
        cur_terms: Dict[Tuple[int, int, int], Number] = {}
        if s == 0:
            cur_terms[(0, 0, 0)] = 1
        else:
            for m1 in range(s + 1):
                for m2 in range(s - m1 + 1):
                    m3 = s - m1 - m2
                    if not in_region(m1, m2, m3):
                        continue
                    # The support is a lower set, so the predecessor of an
                    # in-region point is always in the previous shell's cache.
                    if m3:
                        pred, direction = (m1, m2, m3 - 1), 2
                    elif m2:
                        pred, direction = (m1, m2 - 1, 0), 1
                    else:
                        pred, direction = (m1 - 1, 0, 0), 0
                    cur_terms[(m1, m2, m3)] = step(pred, prev_terms[pred], direction)
        if not cur_terms:
            # Every remaining shell is empty too: the sum is complete.
            terminated = True
            converged = True
            break
        shell_sum: Number = 0
        for value in cur_terms.values():
            shell_sum = shell_sum + value
        total = total + shell_sum
        shells_summed = s + 1
        last_mag = abs(shell_sum)
        recent.append(last_mag)
        prev_terms = cur_terms
        if below_threshold(last_mag, abs(total), policy.tol):
            streak += 1
            if streak >= policy.stall_window:
                converged = True
                break
        else:
            streak = 0
            # Monotone growth after all terminating humps have passed means
            # the series is running away; stop burning shells on it.
            if (
                s >= monitor_start
                and len(recent) == policy.stall_window + 1
                and recent[-1] > 0
                and all(recent[i + 1] >= recent[i] for i in range(len(recent) - 1))
            ):
                break

    if strict and not converged:
        raise NotConvergedError(
            f"triple series did not settle within degree {policy.max_total_degree}"
        )
    return EvaluationResult(
        value=total,
        shells_used=shells_summed,
        last_shell_magnitude=magnitude_as_float(last_mag),
        converged=converged,
        terminated_exactly=terminated,
    )


def eval_pfq(
    upper: Sequence[Number],
    lower: Sequence[Number],
    x: Number,
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    strict: bool = False,
) -> EvaluationResult:
    """Sum the generalized hypergeometric series pFq(upper; lower; x).

    Same backend rules and truncation policy as :func:`eval_f3`.  A
    nonpositive-integer upstairs entry terminates the series and yields an
    exact result; a downstairs entry reaching zero first raises
    DenominatorPoleError.
    """
    upper = tuple(upper)
    lower = tuple(lower)
    classify_backend(list(upper) + list(lower) + [x])

    bound = termination_bound(upper)
    if x == 0:
        bound = 0 if bound is None else min(bound, 0)

    state: Dict[str, Number] = {"prev": 1}

    def term(k: int) -> Number:
        if k == 0:
            state["prev"] = 1
            return 1
        prev = state["prev"]
        if prev == 0:
            return 0
        num: Number = prev * x
        for v in upper:
            num = num * (v + k - 1)
        den: Number = k
        for j, v in enumerate(lower, start=1):
            factor = v + k - 1
            if factor == 0:
                raise DenominatorPoleError(
                    f"lower parameter #{j} = {v!r} vanishes at term k={k}"
                )
            den = den * factor
        value = exact_div(num, den)
        state["prev"] = value
        return value

    return adaptive_sum(term, policy, exact_bound=bound, strict=strict)
