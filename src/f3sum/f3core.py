"""Series engine: the triple hypergeometric sum and its 1-D special case.

``eval_f3`` sums the three-index series

    sum over m1,m2,m3 >= 0 of  L(m1,m2,m3) x1^m1 x2^m2 x3^m3 / (m1! m2! m3!)

where the coefficient ``L`` is the Pochhammer ratio described in
:mod:`f3sum.params`.  Terms are visited shell by shell (constant m1+m2+m3),
each term derived from a neighbour in the previous shell by a one-step
recurrence, so a shell costs one multiply-divide per lattice point instead of
a full coefficient rebuild.

Each call sets up the walk once before summing, in one reading of the
families.  Along each lattice direction exactly four FAMILY_COMBO rows
move, and a family's slot is the index of its row among those four; a step
along the direction reads each moving family's Pochhammer order by slot.
The support is a list of linear cuts: a zero argument x_d is the cut
m_d <= 0, and each upstairs termination bound is a cut too.  The walk, the
top-shell bound and the zero-radius test all read these cuts.  Each shell
is a flat triangular list, ``shell[m1][m2]`` for the point
(m1, m2, s - m1 - m2), so a term finds its predecessor by index, and the
walk itself looks up no family by name.  The cuts leave each row m1 of a
shell one span of m2, computed once per row, so the walk visits only the
support's points and tests none of them.  One loop runs over the shells;
each backend supplies the stepper that fills a shell from the last.

The backend, classified once, sets how a term is stepped and stored.  In
float64 a term is a float.  Per live direction (nonzero argument) a flat
factor plan lists every entry ``v`` whose order moves with a step along
it, with its slot ``k``, and the step factor is ``v + orders[k]``.  The
steps run in straight-line kernels: source built from a plan's two entry
counts alone, compiled once per ``(n_up, n_down)`` key into a bounded
cache, with each entry's value and slot bound as closure variables.  A row
kernel steps all the points of a row that have m3 > 0, and the row's last
point takes the step kernel along m2, or along m1 at (s, 0, 0).  A step
multiplies the upstairs factors into ``term * x``, the downstairs ones into
``m_d``, and divides once.  It makes one pole test per product: the plan is
scanned only when the downstairs product is zero or not finite, and a
product that underflowed to zero with no vanishing factor is
InvalidInputError.

The rational walk compiles nothing.  Each entry is read once as its reduced
ratio ``p/q``, and each family moving along a live direction keeps an int
factor table, grown by one order per shell: its entry at order ``n`` is
``prod (p + (n-1)*q)``, the factor a step into family order ``n``
multiplies in.  The ``q``s of a direction fold into its argument as
``(x.num * prod q_down, x.den * prod q_up)``, reduced once per call.  Every
term of shell s is then an integer over one shell denominator
``D_s = D_{s-1} * K_s``: ``K_s`` is the lcm of the folded argument
denominators, times ``s``, times ``p + (s-1)*q`` for each downstairs entry
moving along a live direction, taken once (a zero factor skipped), so
``D_s`` holds every denominator a term of the shell can have.  A negative
downstairs entry can make ``K_s``, and so ``D_s``, negative.  A step stores
``N = term * D_s`` as ``N_pred * num // den``, an exact division of table
products.  The factors of a step fixed for the shell, the folded argument
denominator and the downstairs values at order s, all divide ``K_s``; each
shell divides them out of ``K_s`` once, so ``den`` keeps only the factors
of the point's own orders.  Along m3 a row multiplies its constant factors
once, and each point reads two tables upstairs and two downstairs; along
m1, at (s, 0, 0), only ``K_s`` is divided.  A zero ``den`` is a pole,
and only then is the direction's plan built, to name the entry.  A shell
is yielded as the int pair ``(N_s, K_s)``, ``N_s`` its plain int sum.
No point pays a ``gcd``, and no shell builds a ``Fraction``.

The walk is a generator of shell sums, and :func:`~f3sum.numerics.adaptive_sum`
draws them, up to the degree cap and no further, and adds them up under the
:class:`~f3sum.numerics.TruncationPolicy`: once the shell magnitude stays
below tol * max(|sum|, 1) for ``stall_window`` shells in a row, the sum stops
and reports converged, unless an uncut direction moves more than one
upstairs entry beyond its downstairs ones (``params.order_excess``), which
means a zero radius of convergence.  When the cuts leave finitely many lattice points, ``eval_f3``
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
import operator
from dataclasses import dataclass, replace
from math import gcd, lcm
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

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
    FAMILIES,
    FAMILY_COMBO,
    NUMERATOR_FAMILIES,
    ParameterSet,
    families_along,
    order_excess,
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

# Per lattice direction, the positions in FAMILIES of its eight families in
# slot order, the four upstairs ones first: each row holds one family of
# each side.  It fetches the direction's factor tables from a call's list.
_SLOT_TABLES = tuple(
    operator.itemgetter(*(
        FAMILIES.index(name) for names in families_along(d) for row in _DIRECTION_ROWS[d]
        for name in names if FAMILY_COMBO[name] == row
    ))
    for d in range(3)
)

# Per family, in FAMILIES order: its FAMILY_COMBO row, the directions its
# order moves along, and whether it is upstairs.
_FAMILY_ROLES = tuple(
    (FAMILY_COMBO[name], tuple(d for d in range(3) if FAMILY_COMBO[name][d]),
     name in NUMERATOR_FAMILIES)
    for name in FAMILIES
)
_FAMILY_ENTRIES = operator.attrgetter(*FAMILIES)
_FAMILY_POSITIONS = range(len(FAMILIES))


def _direction_plan(
    ps: ParameterSet, direction: int, x: Number
) -> Tuple[List[tuple], List[tuple], Number]:
    """The factors of one lattice step along ``direction``, flattened once.

    Returns ``(upstairs, downstairs, x)``.  Each entry ``v`` carries its
    family's slot ``k``, which indexes the four Pochhammer orders a step
    along the direction computes at its predecessor, so its step factor is
    ``v + orders[k]``.  Upstairs entries are ``(k, v)`` and downstairs
    entries ``(k, v, family, j)``, ``j`` the 1-based entry index.  Families
    keep their families_along order and entries their family order, because
    the float product depends on it and a pole names the first vanishing
    factor in it.  The float walk steps from these plans; the exact walk
    builds one only to name a pole.
    """
    up_families, down_families = _DIRECTION_FAMILIES[direction]
    upstairs = [(k, v) for name, k in up_families for v in getattr(ps, name)]
    downstairs = [
        (k, v, name, j)
        for name, k in down_families
        for j, v in enumerate(getattr(ps, name), start=1)
    ]
    return upstairs, downstairs, x


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
    first entry whose factor ``v + orders[k]`` vanishes.  With none, a zero
    product is a float64 underflow, raised as InvalidInputError; an infinite
    or nan product returns, and the step divides by it.
    """
    for k, v, name, j in down:
        if not v + orders[k]:
            raise _pole_error(name, j, v, orders[k])
    if not product:
        raise InvalidInputError(
            f"the downstairs product underflows float64 at Pochhammer order "
            f"{orders[3] + 1}; --backend rational sums this input"
        )


# A float64 step along one direction, as a product of the plan's n_up
# upstairs and n_down downstairs entries.  Only these two ints and fixed
# names make the source; the factory binds each entry's value and slot, and
# builds the one kernel its direction uses: ``row`` along m3, ``step`` along
# m2 and m1.  One pole test per product: the plan is scanned only when the
# product is zero or not finite (``d - d`` is nan for an inf or nan ``d``).
_KERNELS = """
def factory(up, down, x, along_m3):
    [{ups}] = up
    [{downs}] = down
    if along_m3:
        def row(src, lo, stop, s, m1, out, total):
            append = out.append
            c1 = s - m1 - 1
            c3 = s - 1
            m = s - m1 - lo
            for value in src[lo:stop]:
                o = (m - 1, c1, m1 + m - 1, c3)
                d = m{downfactors}
                if not d or d - d:
                    _pole_scan(down, o, d)
                value = value * x{upfactors} / d
                append(value)
                total = total + value
                m -= 1
            return total

        return row

    def step(value, o, m):
        d = m{downfactors}
        if not d or d - d:
            _pole_scan(down, o, d)
        return value * x{upfactors} / d

    return step
"""


@functools.lru_cache(maxsize=256)
def _kernels(n_up: int, n_down: int):
    """The float64 kernel factory for plans of ``n_up`` upstairs and
    ``n_down`` downstairs entries, compiled once per key.  The exact walk
    uses no kernel: it reads the tables of :func:`_exact_stepper`.

    ``factory(up, down, x, along_m3)`` returns ``row`` when ``along_m3`` is
    set, else ``step``.  ``step(value, o, m)`` is one step from the term
    ``value`` whose four orders are ``o``, ``m`` the new factorial factor.
    ``row(src, lo, stop, s, m1, out, total)`` steps along m3 the points
    m2 = lo .. stop - 1 of row m1 of shell s, each from ``src[m2]``, all
    with m3 > 0; it appends each term to ``out`` and returns ``total`` plus
    their sum, in point order.  A step multiplies
    ``value * x * (v1 + o[k1]) * ...`` left to right and divides once by
    ``d = m * (w1 + o[l1]) * ...``, the downstairs factors in plan order.
    """
    source = _KERNELS.format(
        ups=", ".join(f"(k{i}, v{i})" for i in range(n_up)),
        downs=", ".join(f"(l{i}, w{i}, _, _)" for i in range(n_down)),
        upfactors="".join(f" * (v{i} + o[k{i}])" for i in range(n_up)),
        downfactors="".join(f" * (w{i} + o[l{i}])" for i in range(n_down)),
    )
    namespace = {"_pole_scan": _pole_scan}
    exec(source, namespace)
    return namespace["factory"]


# A shell stepper: ``stepper(prev, s, spans)`` steps the points ``spans`` of
# shell s from the triangle ``prev`` of shell s - 1, and returns the new
# triangle and the shell's term for adaptive_sum.
_Stepper = Callable[[list, int, List[Tuple[int, int, int]]], Tuple[list, Term]]


def _float_stepper(plans: List[Optional[tuple]]) -> _Stepper:
    """The float64 shell stepper: each live direction's plan binds its one
    kernel of :func:`_kernels` per call.  A row m1's points with m3 > 0 step
    along m3 in one ``row`` call, which carries the shell sum in point
    order, and its last point (m2 = s - m1, m3 = 0) takes ``step`` along
    m2, or along m1 where m2 = 0 too.  The term is the shell's float sum."""
    step_m1, step_m2, row_m3 = (
        None if plan is None else _kernels(len(plan[0]), len(plan[1]))(*plan, d == 2)
        for d, plan in enumerate(plans)
    )

    def shell(prev, s, spans):
        cur: List[Optional[List[float]]] = [None] * (s + 1)
        shell_sum: Number = 0
        for m1, lo, hi in spans:
            cur[m1] = row = [None] * lo
            last = s - m1
            if lo < last:
                shell_sum = row_m3(prev[m1], lo, hi + 1 if hi < last else last, s, m1, row, shell_sum)
            if hi == last:
                if last:
                    s1 = s - 1
                    value = step_m2(prev[m1][last - 1], (last - 1, last - 1, s1, s1), last)
                else:
                    value = step_m1(prev[m1 - 1][0], (s - 1,) * 4, s)
                row.append(value)
                shell_sum = shell_sum + value
        return cur, shell_sum

    return shell


def _exact_stepper(
    ps: ParameterSet, args: ArgumentTriple, cuts: List[tuple]
) -> Tuple[List[Optional[Tuple[int, int]]], _Stepper]:
    """The rational walk's set-up and shell stepper: ``(folded, stepper)``.

    The set-up is one pass over the nonempty families, and appends each
    upstairs termination cut to ``cuts``.  Every entry ``v`` is read once as
    its reduced ratio ``p/q``; an upstairs one with ``q == 1`` and
    ``p <= 0`` is a nonpositive integer, and its family's least ``-p`` is
    its termination cut.  A family whose order moves along a live direction
    (nonzero argument) gets a factor table, which the stepper grows by one
    order per shell: ``table[n] = prod (p + (n-1)*q)`` over its entries, the
    int factor a step into family order ``n`` multiplies in, ``prod q``
    times ``(v)_n / (v)_(n-1)``; index 0 is never read.  An empty family
    reads one shared table of ones.  The ``q``s of a live direction's
    families fold into its argument, ``folded[d] = (x.num * prod q_down,
    x.den * prod q_up)`` divided by its ``gcd``: entries that share a
    denominator (sevenths) would otherwise leave a common power of it in
    both halves, and so in ``B`` and every ``K_s``.  A zero argument's
    ``folded[d]`` is None.

    The stepper stores every term of shell s as the int ``N = term * D_s``,
    with ``D_0 = 1`` and ``D_s = D_{s-1} * K_s``, and returns the shell's
    term as ``(N_s, K_s)``.  ``K_s = B * s * prod (p + (s-1)*q)``: ``B`` is
    the lcm of the folded argument denominators, and the product runs over
    the downstairs entries moving along a live direction, each taken once
    although a family may move along two, with a zero factor skipped.  A
    point m of shell s has total degree s and every Pochhammer order at most
    s, so its term's denominator, which holds at most ``B^s``, ``m!`` and
    the downstairs factors ``p + k*q`` for k below each order, divides
    ``D_s``: every term of the shell is an integer over ``D_s``.  A skipped
    zero factor is a pole no point reached, since the step raises
    DenominatorPoleError at the point that reaches one.  A negative entry
    gives negative factors while ``p + (s-1)*q < 0``, so ``K_s`` and ``D_s``
    may be negative; a reader takes ``|D_s|``.

    A step into a point multiplies, for each family moving along its
    direction, the table entry at the family's order there.  Along m3 those
    orders are ``(m3, s - m1, m1 + m3, s)`` by slot, so a row multiplies
    ``x * K_s`` and the tables at ``s - m1`` and ``s`` once, and each point
    two upstairs and two downstairs tables; along m2 they are
    ``(m2, m2, s, s)``, and along m1 all ``s``.  A step is one exact
    division, ``N = N_pred * num // den``: ``num`` the folded argument's
    numerator, ``K_s`` and the upstairs table values, ``den`` the new
    factorial factor, the folded denominator and the downstairs ones.  In
    ints the grouping of the factors does not move ``N``, so each shell
    cancels from ``K_s`` once the part ``q`` of ``den`` fixed for it:
    ``x3.den * e[s]`` along m3, ``x2.den * g[s] * e[s]`` along m2, all of
    ``den`` along m1.  ``B`` holds the folded denominator, and each table
    value at order s is a product of factors ``p + (s-1)*q`` held in
    ``K_s``, so ``K_s // q`` is exact; a zero ``q`` cancels nothing and
    leaves ``den`` 0.  A zero ``den`` is a pole: the stepper builds that
    direction's :func:`_direction_plan` there, and :func:`_pole_scan` names
    the first vanishing entry.
    """
    pairs = [x.as_integer_ratio() for x in args]
    live = [n != 0 for n, _ in pairs]
    all_live = all(live)
    ones = [None]
    tables = [ones] * len(FAMILIES)
    # Grown once per shell: (append, p, q) for a one-entry family, the
    # ones among them, and (append, ratios) for a longer one.
    singles = [(ones.append, 1, 0)]
    multis = []
    downstairs = []
    q_up = [1, 1, 1]
    q_down = [1, 1, 1]
    entries = _FAMILY_ENTRIES(ps)
    for i in itertools.compress(_FAMILY_POSITIONS, entries):
        combo, directions, upstairs = _FAMILY_ROLES[i]
        ratios = [v.as_integer_ratio() for v in entries[i]]
        if upstairs:
            bound = None
            for p, q in ratios:
                if q == 1 and p <= 0 and (bound is None or -p < bound):
                    bound = -p
            if bound is not None:
                cuts.append(combo + (bound,))
        along = directions if all_live else [d for d in directions if live[d]]
        if not along:
            continue
        q_all = 1
        for _, q in ratios:
            q_all *= q
        q_side = q_up if upstairs else q_down
        for d in along:
            q_side[d] *= q_all
        if not upstairs:
            downstairs += ratios
        tables[i] = table = [None]
        if len(ratios) == 1:
            singles.append((table.append,) + ratios[0])
        else:
            multis.append((table.append, ratios))
    folded: List[Optional[Tuple[int, int]]] = [None, None, None]
    base = 1
    for d, (n, m) in enumerate(pairs):
        if n:
            n *= q_down[d]
            m *= q_up[d]
            g = gcd(n, m)
            folded[d] = (n // g, m // g)
            base = lcm(base, m // g)
    x1, x2, x3 = folded
    # Each live direction reads the tables of its families in slot order
    # (_DIRECTION_ROWS); the names are those of the FAMILY_COMBO rows.
    if x1:
        c, bpp, b, a, h, gpp, g, e = _SLOT_TABLES[0](tables)
    if x2:
        cp, bp, b, a, hp, gp, g, e = _SLOT_TABLES[1](tables)
    if x3:
        cpp, bp, bpp, a, hpp, gp, gpp, e = _SLOT_TABLES[2](tables)

    def shell(prev, s, spans):
        o = s - 1
        for append, p, q in singles:
            append(p + q * o)
        for append, ratios in multis:
            t = 1
            for p, q in ratios:
                t *= p + q * o
            append(t)
        k_s = base * s
        for p, q in downstairs:
            factor = p + q * o
            if factor:
                k_s *= factor
        if x3:
            q3 = x3[1] * e[s]
            num3 = x3[0] * (k_s // q3 if q3 else 0) * a[s]
        if x2:
            q2 = x2[1] * g[s] * e[s]
            num2 = x2[0] * (k_s // q2 if q2 else 0) * b[s] * a[s]
        cur: List[Optional[List[int]]] = [None] * (s + 1)
        total = 0
        for m1, lo, hi in spans:
            cur[m1] = row = [None] * lo
            last = s - m1
            if lo < last:
                # The points with m3 > 0 step along m3, from m3 = last - lo down.
                row_num = num3 * bp[last]
                row_den = gp[last] if q3 else 0
                append = row.append
                m3 = last - lo
                k = s - lo
                for value in prev[m1][lo:hi + 1 if hi < last else last]:
                    den = m3 * row_den * hpp[m3] * gpp[k]
                    if not den:
                        _pole_scan(_direction_plan(ps, 2, args.x3)[1], (m3 - 1, last - 1, k - 1, o), den)
                    value = value * (row_num * cpp[m3] * bpp[k]) // den
                    append(value)
                    total += value
                    m3 -= 1
                    k -= 1
            if hi == last:
                if last:
                    den = last * hp[last] * gp[last] if q2 else 0
                    if not den:
                        _pole_scan(_direction_plan(ps, 1, args.x2)[1], (last - 1, last - 1, o, o), den)
                    value = prev[m1][last - 1] * (num2 * cp[last] * bp[last]) // den
                else:
                    den = s * x1[1] * h[s] * gpp[s] * g[s] * e[s]
                    if not den:
                        _pole_scan(_direction_plan(ps, 0, args.x1)[1], (o,) * 4, den)
                    value = prev[o][0] * (x1[0] * (k_s // den) * c[s] * bpp[s] * b[s] * a[s])
                row.append(value)
                total += value
        return cur, (total, k_s)

    return folded, shell


def _shell_sums(cuts: List[tuple], stepper: _Stepper) -> Iterator[Term]:
    """Yield the term of each shell s = 0, 1, 2, ... of the lattice walk.

    A point m is in the support when ``c1*m1 + c2*m2 + c3*m3 <= bound`` for
    every cut.  A zero argument x_d is the cut ``m_d <= 0``, so the walk
    never steps along d.  Each shell is read as the :func:`_row_spans` of
    the cuts, so only the support's points are stepped, by the backend's
    ``stepper``: :func:`_float_stepper` runs the compiled kernels and yields
    each shell's float sum, :func:`_exact_stepper` reads the factor tables
    and yields the int pair ``(N_s, K_s)``, which
    :func:`~f3sum.numerics.adaptive_sum` sums over the running denominator
    ``D_s``.  Shell 0 is the int 1 in both backends.  The generator returns
    at the first empty shell: the support is a lower set, so every later
    shell is empty too.

    Shell s is a triangle: ``prev[m1][m2]`` holds the term at
    ``(m1, m2, s-m1-m2)``, None below its row's span, and a row the cuts
    empty is None.  A step along m_d reads its predecessor there.
    """
    prev: List[Optional[list]] = [[1]]
    yield 1
    for s in itertools.count(1):
        spans = _row_spans(cuts, s)
        if not spans:
            return
        prev, term = stepper(prev, s, spans)
        yield term


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
    """Set up one call's walk: ``(steps, cuts, shell terms)``.  ``steps[d]``
    is None for a zero argument, else the float plan of a step along d, or
    the exact folded argument pair.  The shell terms are a generator that
    has not yet stepped."""
    exact = classify_backend(ps.representatives + (args.x1, args.x2, args.x3)) != FLOAT64
    # A zero argument cuts its direction to m_d = 0, and no step goes along
    # it.  These cuts come first: most points a walk rejects, it rejects by
    # them.  Each upstairs family with a nonpositive-integer entry cuts the
    # support too.
    cuts = [_AXIS_CUTS[d] for d, x in enumerate(args) if x == 0]
    if exact:
        folded, stepper = _exact_stepper(ps, args, cuts)
        return folded, cuts, _shell_sums(cuts, stepper)
    for name in NUMERATOR_FAMILIES:
        values = getattr(ps, name)
        if values:
            bound = termination_bound(values)
            if bound is not None:
                cuts.append(FAMILY_COMBO[name] + (bound,))
    plans = [None if x == 0 else _direction_plan(ps, d, x) for d, x in enumerate(args)]
    return plans, cuts, _shell_sums(cuts, _float_stepper(plans))


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
    _, cuts, shells = _walk(ps, args)
    top = _top_shell(cuts, policy.max_total_degree)
    result = adaptive_sum(shells, policy, exact_bound=top)
    if top is None and result.converged:
        # A direction no cut bounds is live (a zero argument is a cut), and
        # along it terms grow like (m!)^(excess - 1): order_excess(d) above 1
        # is a zero radius.
        lengths = dict(zip(FAMILIES, map(len, _FAMILY_ENTRIES(ps))))
        if any(order_excess(lengths, d) > 1 for d in range(3)
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
