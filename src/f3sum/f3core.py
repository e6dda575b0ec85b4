"""Series engines: the triple hypergeometric sum and its 1-D cousin.

``eval_f3`` sums the three-index series

    sum over m1,m2,m3 >= 0 of  L(m1,m2,m3) x1^m1 x2^m2 x3^m3 / (m1! m2! m3!)

where the coefficient ``L`` is the Pochhammer ratio described in
:mod:`f3sum.params`.  Terms are visited shell by shell (constant m1+m2+m3),
each term derived from a neighbour in the previous shell by a one-step
recurrence, so a shell costs one multiply-divide per lattice point instead of
a full coefficient rebuild.

Each call compiles the walk once before summing.  Per lattice direction a
flat factor plan lists every parameter entry whose Pochhammer order moves
with a step along it, with its family's FAMILY_COMBO weights; the upstairs
termination bounds become linear cuts on the lattice; and the backend,
classified once, picks the division (float ``/`` or exact ``Fraction``).
Each shell is a flat triangular list, ``shell[m1][m2]`` for the point
(m1, m2, s - m1 - m2), so a term finds its predecessor by index, and the walk
itself looks up no family by name.

The walk is a generator of shell sums, and :func:`~f3sum.numerics.adaptive_sum`
adds them up under the :class:`~f3sum.numerics.TruncationPolicy`: once the
shell magnitude stays below tol * max(|sum|, 1) for ``stall_window`` shells in
a row, the sum stops and reports converged.  When upstairs parameters or zero
arguments cut the support down to finitely many lattice points the walk
instead runs off the end of the support; its first empty shell ends the sum
with an exact, backend-exact value (``terminated_exactly``).

``eval_pfq`` is the ordinary generalized hypergeometric series under the same
policy, used as an independent reference for the closed-form summation lemmas.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .errors import DenominatorPoleError, InvalidInputError
from .numerics import (
    FLOAT64,
    EvaluationResult,
    Number,
    TruncationPolicy,
    adaptive_sum,
    classify_backend,
    exact_div,
    pochhammer_product,
)
from .params import (
    DENOMINATOR_FAMILIES,
    FAMILY_COMBO,
    NUMERATOR_FAMILIES,
    ParameterSet,
    combo_degree,
    families_along,
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
    if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence) or len(raw) != 3:
        raise InvalidInputError(f"args must be a list of exactly three scalars, got {raw!r}")
    x1, x2, x3 = (parse_number(v, backend) for v in raw)
    return ArgumentTriple(x1, x2, x3)


def lambda_coeff(ps: ParameterSet, m1: int, m2: int, m3: int) -> Number:
    """Series coefficient L(m1, m2, m3): upstairs Pochhammer products over
    downstairs ones.  Raises DenominatorPoleError when a downstairs product
    vanishes, since the ratio is undefined there."""
    for m in (m1, m2, m3):
        if not isinstance(m, int) or m < 0:
            raise InvalidInputError(
                f"lattice indices must be non-negative ints, got {m!r}"
            )
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


# Per lattice direction, the families whose Pochhammer order steps along it
# with their FAMILY_COMBO rows, split into (upstairs, downstairs).
_DIRECTION_FAMILIES = tuple(
    tuple(
        tuple((name, FAMILY_COMBO[name]) for name in names)
        for names in families_along(d)
    )
    for d in range(3)
)


def _direction_plan(
    ps: ParameterSet, direction: int, x: Number
) -> Tuple[List[tuple], List[tuple], Number]:
    """The factors of one lattice step along ``direction``, flattened once.

    Returns ``(upstairs, downstairs, x)``: upstairs entries as
    ``(w1, w2, w3, value)`` and downstairs entries as
    ``(w1, w2, w3, family, j, value)``, where ``w`` is the family's
    FAMILY_COMBO row and ``j`` the 1-based entry index.  Families keep their
    families_along order and entries their family order, because the float
    product depends on it.
    """
    up_families, down_families = _DIRECTION_FAMILIES[direction]
    upstairs = [w + (v,) for name, w in up_families for v in getattr(ps, name)]
    downstairs = [
        w + (name, j, v)
        for name, w in down_families
        for j, v in enumerate(getattr(ps, name), start=1)
    ]
    return upstairs, downstairs, x


def _shell_sums(
    plans: List[Optional[Tuple[List[tuple], List[tuple], Number]]],
    cuts: List[tuple],
    div: Callable[[Number, Number], Number],
) -> Iterator[Number]:
    """Yield the sum of each shell s = 0, 1, 2, ... of the lattice walk.

    ``plans[d]`` is None where argument d is zero, which keeps the walk off
    that direction.  The generator returns at the first empty shell: the
    support is a lower set, so every later shell is empty too.
    """
    z1, z2, z3 = (plan is None for plan in plans)
    # Shell s is a triangle: prev[m1][m2] holds the term at (m1, m2, s-m1-m2),
    # or None where the point lies outside the support.
    prev: List[List[Optional[Number]]] = [[1]]
    yield 1
    for s in itertools.count(1):
        cur: List[List[Optional[Number]]] = []
        shell_sum: Number = 0
        visited = False
        for m1 in range(s + 1):
            row: List[Optional[Number]] = []
            cur.append(row)
            for m2 in range(s - m1 + 1):
                m3 = s - m1 - m2
                outside = (z1 and m1) or (z2 and m2) or (z3 and m3)
                for c1, c2, c3, bound in cuts:
                    if c1 * m1 + c2 * m2 + c3 * m3 > bound:
                        outside = True
                        break
                if outside:
                    row.append(None)
                    continue
                # Step from the predecessor (p1, p2, p3) in the previous
                # shell.  The support is a lower set, so that predecessor is
                # in it.  The step multiplies in x, divides by the new
                # factorial factor m_d (den's start), and every family whose
                # order moves with it contributes one fresh linear factor.
                if m3:
                    p1, p2, p3, den = m1, m2, m3 - 1, m3
                    up, down, x = plans[2]
                    value = prev[m1][m2]
                elif m2:
                    p1, p2, p3, den = m1, m2 - 1, 0, m2
                    up, down, x = plans[1]
                    value = prev[m1][m2 - 1]
                else:
                    p1, p2, p3, den = m1 - 1, 0, 0, m1
                    up, down, x = plans[0]
                    value = prev[m1 - 1][0]
                num = value * x
                for w1, w2, w3, v in up:
                    num = num * (v + (w1 * p1 + w2 * p2 + w3 * p3))
                for w1, w2, w3, name, j, v in down:
                    order = w1 * p1 + w2 * p2 + w3 * p3
                    factor = v + order
                    if factor == 0:
                        raise DenominatorPoleError(
                            f"downstairs entry {name}[{j}] = {v!r} vanishes at "
                            f"Pochhammer order {order + 1}"
                        )
                    den = den * factor
                value = div(num, den)
                row.append(value)
                shell_sum = shell_sum + value
                visited = True
        if not visited:
            return
        prev = cur
        yield shell_sum


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
    backend = classify_backend(ps.all_entries() + args.to_list())
    div = operator.truediv if backend == FLOAT64 else exact_div
    # A zero argument keeps the walk off its direction, which needs no plan.
    plans = [None if x == 0 else _direction_plan(ps, d, x) for d, x in enumerate(args)]
    bounds = numerator_bounds(ps)
    cuts = [FAMILY_COMBO[name] + (b,) for name, b in bounds.items() if b is not None]
    shells = _shell_sums(plans, cuts, div)
    return adaptive_sum(lambda s: next(shells, None), policy, strict=strict)


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

    def terms() -> Iterator[Number]:
        prev: Number = 1
        yield prev
        for k in itertools.count(1):
            # After a zero term every later one is zero: stop stepping.
            if prev != 0:
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
                prev = exact_div(num, den)
            yield prev

    it = terms()
    return adaptive_sum(lambda k: next(it), policy, exact_bound=bound, strict=strict)
