"""Series engine: the triple hypergeometric sum and its 1-D special case.

``eval_f3`` sums the three-index series

    sum over m1,m2,m3 >= 0 of  L(m1,m2,m3) x1^m1 x2^m2 x3^m3 / (m1! m2! m3!)

where the coefficient ``L`` is the Pochhammer ratio described in
:mod:`f3sum.params`.  Terms are visited shell by shell (constant m1+m2+m3),
each term derived from a neighbour in the previous shell by a one-step
recurrence, so a shell costs one multiply-divide per lattice point instead of
a full coefficient rebuild.

Each call compiles the walk once before summing, into its one reading of
the families.  Along each lattice direction exactly four FAMILY_COMBO rows
move; per live direction (nonzero argument) a flat factor plan lists every
parameter entry whose Pochhammer order moves with a step along it, with its
family's slot, the index of its row among those four.  A step computes the
four orders at its predecessor once, and each entry reads its own by slot.
The support is a list of linear cuts: a zero argument x_d is the cut
m_d <= 0, and each upstairs termination bound is a cut too.  The walk, the
exact shell denominators, the top-shell bound and the zero-radius test all
read these plans and cuts.  Each shell is a flat triangular list,
``shell[m1][m2]`` for the point (m1, m2, s - m1 - m2), so a term finds its
predecessor by index, and the walk itself looks up no family by name.  The
cuts leave each row m1 of a shell one span of m2, computed once per row, so
the walk visits only the support's points and tests none of them.

The backend, classified once, sets how a term starts and how it is stored.
Every entry ``v = p/q`` enters its plan as ``(k, q, p)``, so its step factor
``p + q*orders[k]`` is ``q * (v + order)``, zero exactly when ``v + order``
is.  Both backends step in straight-line kernels: source built from a
plan's entry counts and the backend alone, compiled once per
``(n_up, n_down, exact)`` key into a bounded cache, with each entry's value
and slot bound as closure variables.  A row kernel steps all the points of a
row that have m3 > 0, and the row's last point takes the step kernel along
m2, or along m1 at (s, 0, 0).  Each step makes one pole test per product:
the plan is scanned only when the downstairs product is zero, or in float64
not finite.  In float64, ``p = v`` and ``q = 1``, so the factor is
``v + order``: a term is a float, the step multiplies the upstairs factors
into ``term * x``, the downstairs ones into ``m_d``, and divides once, and a
product that underflowed to zero with no vanishing factor is
InvalidInputError.  In the rational backend ``p/q`` is the entry's reduced
fraction, so every factor is an int, and the ``q``s of a direction fold into
its argument as ``(x.num * prod q_down, x.den * prod q_up)``, reduced once
per call.
Every term of shell s is then an integer over one shell denominator
``D_s = D_{s-1} * K_s``: ``K_s``, read from the plans, is the lcm of their
folded argument denominators, times ``s``, times ``p + (s-1)*q`` for each
downstairs entry of a plan, taken once (a zero factor skipped), so ``D_s``
holds every denominator a term of the shell can have.  A negative
downstairs entry can make ``K_s``, and so ``D_s``, negative.  A step stores
``N = term * D_s`` as ``N_pred * (num * K_s) // den``, an exact division,
and a shell is yielded as the int pair ``(N_s, K_s)``, ``N_s`` its plain int
sum.  No point pays a ``gcd``, and no shell builds a ``Fraction``.

The walk is a generator of shell sums, and :func:`~f3sum.numerics.adaptive_sum`
draws them, up to the degree cap and no further, and adds them up under the
:class:`~f3sum.numerics.TruncationPolicy`: once the shell magnitude stays
below tol * max(|sum|, 1) for ``stall_window`` shells in a row, the sum stops
and reports converged, unless an uncut direction's plan holds more than one
upstairs entry beyond its downstairs ones, which means a zero radius of
convergence.  When the cuts leave finitely many lattice points, ``eval_f3``
passes a bound on the top shell as ``exact_bound`` instead, so the stall
rule cannot end the sum early: it runs to the walk's first empty shell,
where the generator ends, and the value is backend-exact
(``terminated_exactly``).  A support that reaches past the degree cap falls
back to the stall rule.

``eval_pfq`` is the ordinary generalized hypergeometric series.  It is the
triple series with every parameter in the two m1-only families (``c``, ``h``)
and x2 = x3 = 0, so it is one ``eval_f3`` call and shares its walk.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from math import gcd, lcm
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import DenominatorPoleError, InvalidInputError
from .numerics import (
    FLOAT64,
    EvaluationResult,
    Number,
    Term,
    TruncationPolicy,
    adaptive_sum,
    classify_backend,
)
from .params import (
    FAMILY_COMBO,
    NUMERATOR_FAMILIES,
    ParameterSet,
    families_along,
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


def arguments_from_json(raw: Sequence, backend: str) -> ArgumentTriple:
    if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence) or len(raw) != 3:
        raise InvalidInputError(f"args must be a list of exactly three scalars, got {raw!r}")
    x1, x2, x3 = (parse_number(v, backend) for v in raw)
    return ArgumentTriple(x1, x2, x3)


# Per lattice direction d, the four FAMILY_COMBO rows that move with it,
# sorted: (0,0,1), (0,1,1), (1,0,1), (1,1,1) along m3.  A family's slot is its
# row's index here, and a step computes the four rows' orders once.
_DIRECTION_ROWS = tuple(
    sorted({w for w in FAMILY_COMBO.values() if w[d]}) for d in range(3)
)

# Per lattice direction, the families whose Pochhammer order steps along it
# with their slots, split into (upstairs, downstairs).
_DIRECTION_FAMILIES = tuple(
    tuple(
        tuple((name, _DIRECTION_ROWS[d].index(FAMILY_COMBO[name])) for name in names)
        for names in families_along(d)
    )
    for d in range(3)
)


def _direction_plan(
    ps: ParameterSet, direction: int, x: Number, exact: bool
) -> Tuple[List[tuple], List[tuple], object]:
    """The factors of one lattice step along ``direction``, flattened once.

    Returns ``(upstairs, downstairs, x)``.  Each entry ``v`` is written as
    ``p/q``: ``p = v`` and ``q = 1`` in float64, numerator and denominator
    with ``exact`` set.  Its family's slot ``k`` indexes the four Pochhammer
    orders a step along the direction computes at its predecessor, so its
    step factor ``p + q*orders[k]`` is ``q * (v + order)``, an int in the
    rational backend.  Upstairs entries are ``(k, q, p)`` and downstairs
    entries ``(k, q, p, family, j, v)``, ``j`` the 1-based entry index.
    Empty families are skipped; the others keep their families_along order
    and entries their family order, because the float product depends on it.

    In float64 the argument stays ``x``.  With ``exact`` set the ``q``s fold
    into it, and it becomes the int pair
    ``(x.num * prod q_down, x.den * prod q_up)`` divided by its ``gcd``:
    entries that share a denominator (sevenths) would otherwise leave a
    common power of it in both halves, and so in ``B`` and every ``K_s``.
    """
    up_families, down_families = _DIRECTION_FAMILIES[direction]
    upstairs = []
    q_up = 1
    for name, k in up_families:
        values = getattr(ps, name)
        if values:
            for v in values:
                p, q = v.as_integer_ratio() if exact else (v, 1)
                upstairs.append((k, q, p))
                q_up *= q
    downstairs = []
    q_down = 1
    for name, k in down_families:
        values = getattr(ps, name)
        if values:
            for j, v in enumerate(values, start=1):
                p, q = v.as_integer_ratio() if exact else (v, 1)
                downstairs.append((k, q, p, name, j, v))
                q_down *= q
    if exact:
        n, d = x.as_integer_ratio()
        n *= q_down
        d *= q_up
        g = gcd(n, d)
        x = (n // g, d // g)
    return upstairs, downstairs, x


def _shell_factors(plans: List[Optional[tuple]]) -> Iterator[int]:
    """Yield ``K_s`` for s = 1, 2, ...: the exact walk's shell denominators
    are ``D_0 = 1`` and ``D_s = D_{s-1} * K_s``.

    ``K_s = B * s * prod (p + (s-1)*q)``, read from the live plans (nonzero
    argument): ``B`` is the lcm of their folded argument denominators, and
    the product runs over their downstairs entries ``p/q``, each taken once
    by ``(family, j)`` although a family moving along two live directions
    sits in both plans, with a zero factor skipped.  A point m of shell s has
    total degree s and every Pochhammer order at most s, so its term's
    denominator, which holds at most ``B^s``, ``m!`` and the downstairs
    factors ``p + k*q`` for k below each order, divides ``D_s``: every term
    of the shell is an integer over ``D_s``.  A skipped zero factor is a pole
    no point reached, since the step raises DenominatorPoleError at the point
    that reaches one.  A negative entry gives negative factors while
    ``p + (s-1)*q < 0``, so ``K_s`` and ``D_s`` may be negative; a reader
    takes ``|D_s|``.
    """
    live = [plan for plan in plans if plan is not None]
    base = lcm(*(x[1] for _, _, x in live))
    downstairs = {
        (name, j): (p, q) for _, down, _ in live for _, q, p, name, j, _ in down
    }.values()
    for s in itertools.count(1):
        k = base * s
        for p, q in downstairs:
            factor = p + (s - 1) * q
            if factor:
                k *= factor
        yield k


def _row_spans(cuts: List[tuple], s: int) -> List[Tuple[int, int, int]]:
    """The support on shell s, as ``(m1, lo, hi)`` per row m1 that it meets:
    the points ``(m1, m2, s - m1 - m2)`` with ``lo <= m2 <= hi``.

    Along row m1, m3 = s - m1 - m2, so a cut ``(c1, c2, c3, b)`` reads
    ``(c2 - c3)*m2 <= room + (c3 - c1)*m1`` with ``room = b - c3*s``.  Its
    weights are 0 or 1, so it bounds m2 from above by ``room`` or
    ``room - m1``, from below by ``-room`` or ``-room - m1``, or, with
    ``c2 == c3``, bounds m1 alone.  Each kind keeps only its tightest cut,
    and the cuts together leave each row one interval.
    """
    if not cuts:
        return [(m1, 0, s - m1) for m1 in range(s + 1)]
    # m1 runs from first to last; lo >= max(lo0, lo1 - m1), hi <= min(hi0, hi1 - m1).
    first, last = 0, s
    lo0 = lo1 = 0
    hi0 = hi1 = s
    for c1, c2, c3, b in cuts:
        room = b - c3 * s
        if c2 > c3:
            if c1:
                if room < hi1:
                    hi1 = room
            elif room < hi0:
                hi0 = room
        elif c2 < c3:
            if c1:
                if -room > lo0:
                    lo0 = -room
            elif -room > lo1:
                lo1 = -room
        elif c3 > c1:
            if -room > first:
                first = -room
        elif c3 < c1:
            if room < last:
                last = room
        elif room < 0:
            return []
    # max(lo0, lo1 - m1) <= min(hi0, hi1 - m1) pairwise bounds m1 once more,
    # and leaves no row between first and last empty.
    if lo0 > hi0 or lo1 > hi1:
        return []
    if lo1 - hi0 > first:
        first = lo1 - hi0
    if hi1 - lo0 < last:
        last = hi1 - lo0
    spans = []
    for m1 in range(first, last + 1):
        spans.append((m1, lo1 - m1 if lo1 - m1 > lo0 else lo0, hi1 - m1 if hi1 - m1 < hi0 else hi0))
    return spans


def _pole_error(name: str, j: int, entry: Number, order: int) -> DenominatorPoleError:
    """The error of a downstairs entry whose factor vanishes on a step from
    Pochhammer order ``order``."""
    return DenominatorPoleError(
        f"downstairs entry {name}[{j}] = {entry!r} vanishes at "
        f"Pochhammer order {order + 1}"
    )


def _pole_scan(down: List[tuple], orders: tuple, product: Number) -> None:
    """Account for a step whose downstairs product is zero or not finite.

    Walks the plan ``down`` in order and raises :func:`_pole_error` for the
    first entry whose factor ``p + q*orders[k]`` vanishes.  With none, a
    zero product is a float64 underflow, raised as InvalidInputError; an
    infinite or nan product returns, and the step divides by it.
    """
    for k, q, p, name, j, entry in down:
        if not p + q * orders[k]:
            raise _pole_error(name, j, entry, orders[k])
    if not product:
        raise InvalidInputError(
            f"the downstairs product underflows float64 at Pochhammer order "
            f"{orders[3] + 1}; --backend rational sums this input"
        )


# A step along one direction, as a product of the plan's n_up upstairs and
# n_down downstairs entries, in float64 or exact ints.  Only these two ints,
# the backend and fixed names make the source; the factory binds each entry's
# value and slot, and builds the one kernel its direction uses: ``row`` along
# m3, ``step`` along m2 and m1.  One pole test per product: the plan is
# scanned only when the product is zero, or in float64 not finite (``d - d``
# is nan for an inf or nan ``d``).
_KERNELS = """
def factory(up, down, x, along_m3):
    [{ups}] = up
    [{downs}] = down
    {x}
    if along_m3:
        def row(src, lo, stop, s, m1, out, total, k_s):
            append = out.append
            c1 = s - m1 - 1
            c3 = s - 1
            m = s - m1 - lo
            for value in src[lo:stop]:
                o = (m - 1, c1, m1 + m - 1, c3)
                d = {den}
                if {pole}:
                    _pole_scan(down, o, d)
                value = {update}
                append(value)
                total = total + value
                m -= 1
            return total

        return row

    def step(value, o, m, k_s):
        d = {den}
        if {pole}:
            _pole_scan(down, o, d)
        return {update}

    return step
"""


@functools.lru_cache(maxsize=256)
def _kernels(n_up: int, n_down: int, exact: bool):
    """The kernel factory for plans of ``n_up`` upstairs and ``n_down``
    downstairs entries in one backend, compiled once per key.

    ``factory(up, down, x, along_m3)`` returns ``row`` when ``along_m3`` is
    set, else ``step``.  ``step(value, o, m, k_s)`` is one step from the
    term ``value`` whose four orders are ``o``, ``m`` the new factorial
    factor.  ``row(src, lo, stop, s, m1, out, total, k_s)`` steps along m3
    the points m2 = lo .. stop - 1 of row m1 of shell s, each from
    ``src[m2]``, all with m3 > 0; it appends each term to ``out`` and
    returns ``total`` plus their sum, in point order.  In float64 ``k_s`` is
    None, and a step multiplies ``value * x * (v1 + o[k1]) * ...`` left to
    right and divides once by ``d = m * (w1 + o[l1]) * ...``, the downstairs
    factors in plan order.  With ``exact`` set, ``x`` is the int pair
    ``(xn, xd)``, each factor is ``p + q*o[k]``, and a step is the exact
    division ``value * (xn * ... * k_s) // d`` with ``d = m * xd * ...``.
    """

    def factors(value, scale, slot, n):
        # " * (v0 + q0 * o[k0]) * ...", or in float64, where q = 1, without q.
        return "".join(f" * ({value}{i} + {scale}{i} * o[{slot}{i}])" if exact
                       else f" * ({value}{i} + o[{slot}{i}])" for i in range(n))

    up = factors("v", "q", "k", n_up)
    source = _KERNELS.format(
        ups=", ".join(f"(k{i}, q{i}, v{i})" for i in range(n_up)),
        downs=", ".join(f"(l{i}, r{i}, w{i}, _, _, _)" for i in range(n_down)),
        x="xn, xd = x" if exact else "",
        den=("m * xd" if exact else "m") + factors("w", "r", "l", n_down),
        pole="not d" if exact else "not d or d - d",
        update=f"value * (xn{up} * k_s) // d" if exact else f"value * x{up} / d",
    )
    namespace = {"_pole_scan": _pole_scan}
    exec(source, namespace)
    return namespace["factory"]


def _shell_sums(
    plans: List[Optional[Tuple[List[tuple], List[tuple], object]]],
    cuts: List[tuple],
    shell_factors: Optional[Iterator[int]],
) -> Iterator[Term]:
    """Yield the sum of each shell s = 0, 1, 2, ... of the lattice walk.

    A point m is in the support when ``c1*m1 + c2*m2 + c3*m3 <= bound`` for
    every cut.  A zero argument x_d is the cut ``m_d <= 0``, so the walk
    never steps along d, where ``plans[d]`` is None.  Each shell is read as
    the :func:`_row_spans` of the cuts, so only the support's points are
    stepped.  The generator returns at the first empty shell: the support is
    a lower set, so every later shell is empty too.

    A step along m_d reads its predecessor's four orders, in the slot order
    of :data:`_DIRECTION_ROWS`, once: ``(m3-1, s-m1-1, m1+m3-1, s-1)`` along
    m3, ``(m2-1, m2-1, s-1, s-1)`` along m2 (where m3 = 0), and ``s-1`` four
    times along m1 (where m2 = m3 = 0).  An entry ``(k, q, p)`` then steps
    by the factor ``p + q*orders[k]``.

    Each live direction's plan gets its one kernel of :func:`_kernels` per
    call, in the call's backend: a row m1's points with m3 > 0 step along m3
    in one ``row`` call, which carries the shell sum in point order, and its
    last point (m2 = s - m1, m3 = 0) takes ``step`` along m2, or along m1
    where m2 = 0 too.  The backend only decides how a term is stored.  In
    float64, ``shell_factors`` is None and a term is a float.  In the
    rational backend ``shell_factors`` yields the ``K_s`` of
    :func:`_shell_factors`, and each term of shell s is the int
    ``N = term * D_s``, stepped as ``N_pred * (num * K_s) // den``, an exact
    division with one multiply of the big ``N_pred``.  Shell 0 is the int 1
    in both backends; every later exact shell is yielded as ``(N_s, K_s)``,
    its int sum and factor, which :func:`~f3sum.numerics.adaptive_sum` sums
    over the running denominator ``D_s``.
    """
    exact = shell_factors is not None
    step_m1, step_m2, row_m3 = (
        None if plan is None else _kernels(len(plan[0]), len(plan[1]), exact)(*plan, d == 2)
        for d, plan in enumerate(plans)
    )
    k_s = None
    # Shell s is a triangle: prev[m1][m2] holds the term at (m1, m2, s-m1-m2),
    # None below its row's span; a row the cuts empty is None.
    prev: List[Optional[List[object]]] = [[1]]
    yield 1
    for s in itertools.count(1):
        spans = _row_spans(cuts, s)
        if not spans:
            return
        if exact:
            k_s = next(shell_factors)
        cur: List[Optional[List[object]]] = [None] * (s + 1)
        shell_sum: Number = 0
        for m1, lo, hi in spans:
            cur[m1] = row = [None] * lo
            # The row's points with m3 > 0 step along m3 in one kernel call;
            # its last point, m2 = s - m1, steps along m2, or along m1 when
            # it is (s, 0, 0).
            last = s - m1
            if lo < last:
                shell_sum = row_m3(
                    prev[m1], lo, hi + 1 if hi < last else last, s, m1, row, shell_sum, k_s
                )
            if hi == last:
                if last:
                    s1 = s - 1
                    value = step_m2(prev[m1][last - 1], (last - 1, last - 1, s1, s1), last, k_s)
                else:
                    value = step_m1(prev[m1 - 1][0], (s - 1,) * 4, s, k_s)
                row.append(value)
                shell_sum = shell_sum + value
        prev = cur
        yield shell_sum if k_s is None else (shell_sum, k_s)


def _top_shell(cuts: List[tuple], cap: int) -> Optional[int]:
    """A bound on m1 + m2 + m3 over the support, for ``adaptive_sum``'s
    ``exact_bound``; None when the support is infinite or reaches past ``cap``.

    Along each direction the least cut moving with it bounds m_d (a zero
    argument's cut at 0).  These bounds add up to a total that bounds the
    sum, and so does a cut whose weights pick up that whole total: it moves
    with every direction not bounded at 0.  When neither fits under the cap,
    the support, a lower set, ends by the cap exactly when shell cap + 1
    holds none of its points, which the walk's :func:`_row_spans` tell.
    """
    bounds = []
    for d in range(3):
        along = [cut[3] for cut in cuts if cut[d]]
        if not along:
            return None
        bounds.append(min(along))
    total = sum(bounds)
    b1, b2, b3 = bounds
    top = min([total] + [b for c1, c2, c3, b in cuts if c1 * b1 + c2 * b2 + c3 * b3 == total])
    if top <= cap:
        return top
    return None if _row_spans(cuts, cap + 1) else cap


# The cut m_d <= 0 of a zero argument x_d, per direction d.
_AXIS_CUTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def _walk(
    ps: ParameterSet, args: ArgumentTriple
) -> Tuple[List[Optional[tuple]], List[tuple], Iterator[Term]]:
    """Compile one call's walk: ``(plans, cuts, shell sums)``, the last a
    generator that has not yet stepped."""
    exact = classify_backend(ps.representatives + (args.x1, args.x2, args.x3)) != FLOAT64
    plans = [
        None if x == 0 else _direction_plan(ps, d, x, exact) for d, x in enumerate(args)
    ]
    # A zero argument cuts its direction to m_d = 0 and needs no plan.  These
    # cuts come first: most points a walk rejects, it rejects by them.  Each
    # upstairs family with a nonpositive-integer entry cuts the support too.
    cuts = [_AXIS_CUTS[d] for d, plan in enumerate(plans) if plan is None]
    for name in NUMERATOR_FAMILIES:
        values = getattr(ps, name)
        if values:
            bound = termination_bound(values)
            if bound is not None:
                cuts.append(FAMILY_COMBO[name] + (bound,))
    factors = _shell_factors(plans) if exact else None
    return plans, cuts, _shell_sums(plans, cuts, factors)


def eval_f3(
    ps: ParameterSet,
    args: ArgumentTriple,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> EvaluationResult:
    """Sum the triple series at ``args`` under ``policy``.

    Parameters and arguments must share one arithmetic backend.  A series
    that does not settle within the degree cap, or whose radius of
    convergence is zero, returns its partial sum with ``converged`` False.
    """
    plans, cuts, shells = _walk(ps, args)
    top = _top_shell(cuts, policy.max_total_degree)
    result = adaptive_sum(shells, policy, exact_bound=top)
    if top is None and result.converged:
        # A direction no cut bounds is live (a zero argument is a cut), and
        # along it terms grow like (m!)^(excess - 1), where the excess is its
        # plan's upstairs entries less its downstairs ones: order_excess(d).
        if any(len(plans[d][0]) - len(plans[d][1]) > 1 for d in range(3)
               if not any(cut[d] for cut in cuts)):
            return replace(result, converged=False)
    return result


def eval_pfq(
    upper: Sequence[Number],
    lower: Sequence[Number],
    x: Number,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> EvaluationResult:
    """Sum the generalized hypergeometric series pFq(upper; lower; x).

    This is the triple series on the m1 axis: ``upper`` and ``lower`` fill
    the two families whose order is m1 alone (``c`` and ``h``), and x2 = x3
    = 0, so :func:`eval_f3` sums it with the same walk, cuts and policy.  A
    nonpositive-integer upstairs entry terminates the series and yields an
    exact result; a downstairs entry reaching zero first raises
    DenominatorPoleError.
    """
    ps = ParameterSet(c=tuple(upper), h=tuple(lower))
    return eval_f3(ps, ArgumentTriple(x, 0, 0), policy)
