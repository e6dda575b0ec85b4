"""Seeded verification suite.

Three row groups, always in this order:

1. the six closed-form summation lemmas (binomial, Vandermonde, Saalschutz,
   and three terminating series with quadratic parameter patterns), one row
   each of ``_LEMMAS``.  Four closed forms are read off the declarations in
   ``identities.LEMMAS``, which the x1-series rules' right sides are read
   off too.  Each is checked exactly (rational arithmetic) against its
   series summed by :func:`f3sum.f3core.eval_pfq`, the triple series engine
   on the m1 axis, once, when the case is drawn; that sum shares no algebra
   with the closed forms,
2. the seventeen resummation rules, each on freshly generated instances,
3. the three classical special cases, each run through the rule that covers
   it wholesale.

Instance generation is deterministic: every instance draws from its own
``random.Random`` seeded with a string unique to (seed, row group, index), so
rows never depend on generation order or worker count.

In the float64 backend, rule instances are rejection-sampled until the
family sizes satisfy the balance conditions that keep both the plain series
and all its outer shifts convergent at the suite's small arguments.  In the
rational backend each rule instead gets a terminating recipe, one row of
``_RECIPES``: nonpositive integer entries cut off every series involved,
both sides are summed in full, and a passing row means the two exact values
are identical.  Recipes and special-case layouts name their rational draws
by the codes of one table, ``_DRAWS``; a rule's free scalars are drawn by
name (``t`` a signed seventh, ``r`` and ``d`` thirds).
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (
    DenominatorPoleError,
    F3Error,
    InvalidInputError,
    InvalidInstanceError,
    PoleAtOneError,
)
from .f3core import ArgumentTriple, eval_pfq
from .identities import (
    DEFAULT_OUTER_CAP,
    DEFAULT_RESIDUAL_TOL,
    IDENTITY_IDS,
    LEMMAS,
    IdentityInstance,
    check_identity,
    get_rule,
)
from .numerics import (
    FLOAT64,
    RATIONAL,
    EvaluationResult,
    Number,
    TruncationPolicy,
    exact_div,
    number_pow,
    pochhammer,
    pochhammer_product,
)
from .params import FAMILIES, FamilyIndex, ParameterSet, order_excess
from .special import SPECIAL_KINDS, check_special_case, get_layout, special_params

CSV_COLUMNS: Tuple[str, ...] = (
    "identity_id",
    "instance_index",
    "residual",
    "converged_lhs",
    "converged_rhs",
    "pass",
)


# ---------------------------------------------------------------------------
# Closed-form summation lemmas and their cases.


def _ratio(num: Number, den: Number, what: str) -> Number:
    if den == 0:
        raise DenominatorPoleError(f"closed form for {what} hits a zero denominator")
    return exact_div(num, den)


def _check_order(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise InvalidInputError(f"terminating order must be a non-negative int, got {n!r}")


def binomial_1f0(a: Number, t: Number) -> Number:
    """1F0(a;;t) = (1-t)**(-a).

    Exact in the rational backend only for integer a; raises PoleAtOneError
    at t = 1 and InexactPowerError when an exact non-integer power is asked
    for.
    """
    if t == 1:
        raise PoleAtOneError("1F0 diverges at t = 1")
    return number_pow(1 - t, -a)


def _closed_form(name: str, what: str, n: int, *params: Number) -> Number:
    """The closed form prod (num)_n / prod (den)_n that ``LEMMAS[name]``
    declares at ``params``; ``what`` names the sum in the pole error."""
    _check_order(n)
    num, den = LEMMAS[name](*params)
    return _ratio(pochhammer_product(num, n), pochhammer_product(den, n), what)


def vandermonde_2f1(n: int, a: Number, c: Number) -> Number:
    """2F1(-n, a; c; 1) = (c-a)_n / (c)_n."""
    return _closed_form("vandermonde_2f1", "2F1(-n,a;c;1)", n, a, c)


def saalschutz_3f2(n: int, a: Number, b: Number, c: Number) -> Number:
    """3F2(-n, a, b; c, 1+a+b-c-n; 1) = (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n)."""
    return _closed_form("saalschutz_3f2", "balanced 3F2", n, a, b, c)


def nearly_poised_3f2(n: int, a: Number, b: Number) -> Number:
    """3F2(-n, a, 1+a/2; a/2, b; 1) = (b-a-1-n) (b-a)_(n-1) / (b)_n.

    At n = 0 the series is 1; the closed form needs b - a != 1 there.  Not
    read off ``LEMMAS``: at b - a = 1 its declared ratio is 0/0 for n >= 1,
    where this form is finite.
    """
    _check_order(n)
    if n == 0:
        if b - a - 1 == 0:
            raise DenominatorPoleError(
                "closed form for the nearly-poised 3F2 is undefined at b - a = 1"
            )
        return 1
    return _ratio(
        (b - a - 1 - n) * pochhammer(b - a, n - 1),
        pochhammer(b, n),
        "nearly-poised 3F2",
    )


def twob_balanced_3f2(n: int, a: Number, b: Number) -> Number:
    """3F2(-n, a, b; 1+a-b, 1+2b-n; 1)
       = (a-2b)_n (1+a/2-b)_n (-b)_n / ((1+a-b)_n (a/2-b)_n (-2b)_n)."""
    return _closed_form("twob_balanced_3f2", "two-b balanced 3F2", n, a, -2 * b)


def watson_4f3(n: int, a: Number, b: Number) -> Number:
    """4F3(-n, a, 1+a/2, b; a/2, 1+a-b, 1+2b-n; 1)
       = (a-2b)_n (-b)_n / ((1+a-b)_n (-2b)_n)."""
    return _closed_form("watson_4f3", "Watson-type 4F3", n, a, -2 * b)


@dataclass(frozen=True)
class LemmaCase:
    """One terminating hypergeometric sum with its closed-form value, and
    the series summed by ``eval_pfq`` when the case was drawn."""

    name: str
    order: int
    upper: Tuple[Number, ...]
    lower: Tuple[Number, ...]
    argument: Number
    closed_value: Number
    series: EvaluationResult = field(repr=False, compare=False)


def _seventh(rng: random.Random, lo: int = -20, hi: int = 20) -> Fraction:
    # Denominator 7 keeps every derived parameter combination away from the
    # integers, so Pochhammer poles cannot occur by construction.
    while True:
        p = rng.randrange(lo, hi + 1)
        if p % 7 != 0:
            return Fraction(p, 7)


# name -> (sevenths drawn, series pattern, closed form).  The pattern maps
# (n, *sevenths) to the series (upper, lower, x) and the closed form maps the
# same arguments to its value.
_LEMMAS: Dict[str, Tuple[int, Callable[..., tuple], Callable[..., Number]]] = {
    "binomial_1f0": (1, lambda n, t: ((-n,), (), t), lambda n, t: binomial_1f0(-n, t)),
    "vandermonde_2f1": (2, lambda n, a, c: ((-n, a), (c,), 1), vandermonde_2f1),
    "saalschutz_3f2": (
        3, lambda n, a, b, c: ((-n, a, b), (c, 1 + a + b - c - n), 1), saalschutz_3f2,
    ),
    "nearly_poised_3f2": (
        2, lambda n, a, b: ((-n, a, 1 + a / 2), (a / 2, b), 1), nearly_poised_3f2,
    ),
    "twob_balanced_3f2": (
        2, lambda n, a, b: ((-n, a, b), (1 + a - b, 1 + 2 * b - n), 1), twob_balanced_3f2,
    ),
    "watson_4f3": (
        2,
        lambda n, a, b: ((-n, a, 1 + a / 2, b), (a / 2, 1 + a - b, 1 + 2 * b - n), 1),
        watson_4f3,
    ),
}
LEMMA_NAMES: Tuple[str, ...] = tuple(_LEMMAS)
# The largest terminating order n a generated lemma case draws.
_LEMMA_MAX_ORDER = 15


def lemma_case(name: str, seed: int, index: int) -> LemmaCase:
    """Deterministically generate one valid case for the named lemma.

    Rejection-samples until both the closed form and the series are free of
    poles; the RNG stream is a pure function of (seed, name, index).
    """
    if name not in _LEMMAS:
        raise InvalidInstanceError(f"unknown lemma {name!r}; expected one of {LEMMA_NAMES}")
    sevenths, pattern, closed_form = _LEMMAS[name]
    rng = random.Random(f"{seed}:{name}:{index}")
    for _ in range(500):
        n = rng.randrange(0, _LEMMA_MAX_ORDER + 1)
        drawn = [_seventh(rng) for _ in range(sevenths)]
        try:
            upper, lower, x = pattern(n, *drawn)
            closed_value = closed_form(n, *drawn)
            # The series must be summable in full as well.
            return LemmaCase(name, n, upper, lower, x, closed_value, eval_pfq(upper, lower, x))
        except (F3Error, ZeroDivisionError):
            continue
    raise RuntimeError(f"could not generate a valid case for {name} (seed={seed}, index={index})")


# ---------------------------------------------------------------------------
# Draw codes and rule recipes.


# The rational draw of each code, given the RNG and the instance order n.
# Special-case layouts and rule recipes both name their draws by these codes.
_DRAWS: Dict[str, Callable[[random.Random, int], Number]] = {
    "-n": lambda rng, n: -n,
    "-m": lambda rng, n: -rng.randrange(1, 7),
    "-1": lambda rng, n: -1,
    "up": lambda rng, n: _seventh(rng, 1, 20),
    "down": lambda rng, n: 1 + _seventh(rng, 1, 20),
    "signed": lambda rng, n: _seventh(rng, -20, 20),
    # Denominator 3 for the free scalars: sums with denominator-7 entries
    # (and their halves) can never be integers, so no derived downstairs
    # parameter lands on a pole.
    "third": lambda rng, n: Fraction(rng.choice((1, 2, 4, 5)), 3),
    "ninth": lambda rng, n: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 9),
    "fifth": lambda rng, n: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 5),
}
# The rational draw of each free scalar a rule names.
_SCALAR_DRAWS = {"t": "signed", "r": "third", "d": "third"}


def _t_off_zero(rng: random.Random, x1: float) -> float:
    # the rescaled argument carries 1/t, keep t away from 0
    magnitude = rng.uniform(0.05, 0.2)
    return magnitude if rng.random() < 0.5 else -magnitude


def _t_off_minus_x1(rng: random.Random, x1: float) -> float:
    t = rng.uniform(-0.2, 0.2)
    while abs(t + x1) < 0.02:
        t = rng.uniform(-0.2, 0.2)
    return t


@dataclass(frozen=True)
class _Recipe:
    """How the suite draws one rule's instances.

    params   the rational ``(family, *codes)`` entries in draw order, each
             code a key of ``_DRAWS``; a family of None is drawn and dropped,
    x1       the code that redraws x1 after the scalars, if any,
    float_t  the float64 draw of ``t`` from ``(rng, x1)``.
    """

    params: Tuple[tuple, ...]
    x1: Optional[str] = None
    float_t: Callable[[random.Random, float], float] = lambda rng, x1: rng.uniform(-0.2, 0.2)


# Terminating -1 markers in the three single-index upstairs families.
_ONES = (("c", "-1"), ("cp", "-1"), ("cpp", "-1"))
# The x1-series rules share one frame per indexed family: the markers bound
# the lattice and cut the outer weight off at k = 1.
_X1_A = (("a", "up"),) + _ONES + (("h", "down"),)
_X1_C = (("c", "up", "-1"),) + _ONES[1:] + (("h", "down"),)
# T9c and T10c draw the c frame's first entry and drop it (family None):
# their c family is (-n, -1), and the dropped draw keeps their RNG stream.
_X1_C_DROPPED = ((None, "up"), ("c", "-n", "-1")) + _ONES[1:] + (("h", "down"),)

# One row per rule.  The terminating entries (-n on the indexed entry, -1
# markers) bound all three lattice directions at every outer k and keep the
# binomial prefactors at integer powers.
_RECIPES: Dict[str, _Recipe] = {
    "T1a": _Recipe((("a", "-n"), ("c", "up"), ("h", "down"))),
    "T1b": _Recipe((("b", "-n"), ("cpp", "-1"), ("h", "down"))),
    "T1c": _Recipe((("c", "-n"),) + _ONES[1:] + (("e", "down"),)),
    "T2x1": _Recipe(_ONES + (("b", "up"), ("h", "down"))),
    "T2x2": _Recipe(_ONES + (("bp", "up"), ("hp", "down"))),
    "T2x3": _Recipe(_ONES + (("bpp", "up"), ("hpp", "down"))),
    "T3a": _Recipe(_X1_A),
    "T3c": _Recipe(_X1_C),
    "T4a": _Recipe(_X1_A),
    "T4c": _Recipe(_X1_C),
    "T5c": _Recipe(_X1_C),
    "T6a": _Recipe(_X1_A),
    "T6c": _Recipe(_X1_C),
    "T7c": _Recipe(_X1_C),
    "T8c": _Recipe(_X1_C),
    "T9c": _Recipe(_X1_C_DROPPED, x1="ninth", float_t=_t_off_zero),
    # denominator 5 makes t + x1 structurally nonzero against the sevenths in t
    "T10c": _Recipe(_X1_C_DROPPED, x1="fifth", float_t=_t_off_minus_x1),
}


# ---------------------------------------------------------------------------
# Rule instances.


def _balanced(lengths: Dict[str, int]) -> bool:
    """Family-size conditions keeping every series in a check convergent.

    Per direction the upstairs order may exceed the downstairs by at most
    one (the factorial supplies the last power).  The pair conditions bound
    the growth that outer k-shifts inject into the two other directions."""
    return all(
        order_excess(lengths, *dirs) <= 1
        for dirs in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2))
    )


def random_instance(identity_id: str, seed: int, index: int) -> IdentityInstance:
    """Seeded float64 instance for one rule: balanced family sizes, entries
    in [0.3, 2.5], arguments within 0.05, ``t`` as the rule's recipe draws
    it and the other free scalars in mild ranges."""
    rule = get_rule(identity_id)
    rng = random.Random(f"{seed}:{identity_id}:{index}")

    while True:
        lengths = {f: rng.choice((0, 1, 2)) for f in FAMILIES}
        if rule.indexed_family is not None:
            lengths[rule.indexed_family] = rng.choice((1, 2))
        if _balanced(lengths):
            break

    ps = ParameterSet(**{
        f: tuple(rng.uniform(0.3, 2.5) for _ in range(lengths[f])) for f in FAMILIES
    })
    x1, x2, x3 = (rng.uniform(-0.05, 0.05) for _ in range(3))
    args = ArgumentTriple(x1, x2, x3)
    float_t = _RECIPES[identity_id].float_t
    scalars = {
        name: float_t(rng, x1) if name == "t" else rng.choice((0.3, 0.7, 1.4))
        for name in sorted(rule.scalar_names)
    }

    family = rule.indexed_family
    idx = None
    if family is not None:
        idx = FamilyIndex(family, rng.randrange(1, lengths[family] + 1))
    return IdentityInstance(identity_id, ps, args, idx=idx, scalars=scalars)


def exact_instance(identity_id: str, seed: int, index: int) -> IdentityInstance:
    """Seeded rational instance for one rule, built so that the outer sum
    and every series on both sides terminate.

    The rule's ``_RECIPES`` row places its terminating entries; all other
    entries are sevenths, ``r`` and ``d`` thirds, so no downstairs parameter
    produced by a rewrite can be an integer.  Both sides are then exact sums
    and a correct rule gives a residual of exactly zero.
    """
    rule = get_rule(identity_id)
    recipe = _RECIPES[identity_id]
    rng = random.Random(f"{seed}:{identity_id}:exact:{index}")
    n = rng.randrange(1, 7)
    args = ArgumentTriple(*(_DRAWS["ninth"](rng, n) for _ in range(3)))
    fields = {f: tuple(_DRAWS[code](rng, n) for code in codes) for f, *codes in recipe.params}
    fields.pop(None, None)
    scalars = {name: _DRAWS[_SCALAR_DRAWS[name]](rng, n) for name in sorted(rule.scalar_names)}
    if recipe.x1 is not None:
        args = ArgumentTriple(_DRAWS[recipe.x1](rng, n), args.x2, args.x3)
    idx = None if rule.indexed_family is None else FamilyIndex(rule.indexed_family, 1)
    return IdentityInstance(identity_id, ParameterSet(**fields), args, idx=idx, scalars=scalars)


# ---------------------------------------------------------------------------
# Special-case tuples.


def _is_exact(backend: str) -> bool:
    """True for the rational backend, False for float64; any other name
    raises InvalidInputError."""
    if backend not in (FLOAT64, RATIONAL):
        raise InvalidInputError(
            f"unknown backend {backend!r}; expected {FLOAT64!r} or {RATIONAL!r}"
        )
    return backend == RATIONAL


def special_case_inputs(
    kind: str, seed: int, index: int, backend: str = FLOAT64
) -> Tuple[ParameterSet, ArgumentTriple, Number]:
    """Seeded inputs (embedded parameter set, arguments, t) for one classical
    function.  The rational backend draws each parameter by its layout's
    ``_DRAWS`` code, with terminating upper parameters so the check is exact."""
    layout = get_layout(kind)
    rng = random.Random(f"{seed}:{kind}:{index}")
    if _is_exact(backend):
        n = rng.randrange(1, 7)
        ps = special_params(kind, *(_DRAWS[code](rng, n) for code in layout.draws))
        args = ArgumentTriple(*(_DRAWS["ninth"](rng, n) for _ in range(3)))
        return ps, args, _DRAWS["signed"](rng, n)

    ps = special_params(kind, *(rng.uniform(0.3, 2.5) for _ in layout.families))
    # these layouts put two numerator families against one denominator
    # family per direction, so shells decay only through |x| itself;
    # keep the draw small enough to settle within the default degree cap
    args = ArgumentTriple(*(rng.uniform(-0.03, 0.03) for _ in range(3)))
    return ps, args, rng.uniform(-0.15, 0.15)


# ---------------------------------------------------------------------------
# Suite runner.


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    instances: int = 5
    backend: str = FLOAT64
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    outer_cap: int = DEFAULT_OUTER_CAP
    jobs: int = 1
    policy: Optional[TruncationPolicy] = None

    def __post_init__(self) -> None:
        # The CLI checks its flags in the same words; a float would reach
        # range() as a bare TypeError, and True would run as 1.
        for name in ("instances", "jobs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidInputError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise InvalidInputError(f"{name} must be >= 1")


def _lemma_row(config: SuiteConfig, name: str, index: int) -> Dict[str, object]:
    case = lemma_case(name, config.seed, index)
    series = case.series
    exact_match = series.converged and series.value == case.closed_value
    ref = abs(case.closed_value)
    residual = float(abs(series.value - case.closed_value) / (ref if ref else 1))
    return {
        "identity_id": name,
        "instance_index": index,
        "residual": residual,
        "converged_lhs": series.converged,
        "converged_rhs": True,
        "pass": exact_match,
    }


def _report_row(rid: str, index: int, report, exact: bool) -> Dict[str, object]:
    passed = report.passed
    if exact:
        passed = passed and report.residual == 0.0
    return {
        "identity_id": rid,
        "instance_index": index,
        "residual": report.residual,
        "converged_lhs": report.converged_lhs,
        "converged_rhs": report.converged_rhs,
        "pass": passed,
    }


def _identity_row(config: SuiteConfig, rid: str, index: int) -> Dict[str, object]:
    exact = _is_exact(config.backend)
    if exact:
        inst = exact_instance(rid, config.seed, index)
    else:
        inst = random_instance(rid, config.seed, index)
    report = check_identity(
        inst,
        policy=config.policy,
        residual_tol=config.residual_tol,
        outer_cap=config.outer_cap,
    )
    return _report_row(rid, index, report, exact)


def _special_row(config: SuiteConfig, kind: str, index: int) -> Dict[str, object]:
    exact = _is_exact(config.backend)
    ps, args, t = special_case_inputs(kind, config.seed, index, config.backend)
    report = check_special_case(
        kind, ps, args, t,
        policy=config.policy,
        residual_tol=config.residual_tol,
        outer_cap=config.outer_cap,
    )
    return _report_row(kind, index, report, exact)


# The three row groups in suite order: (section, row function, names).
_ROW_GROUPS = (
    ("lemmas", _lemma_row, LEMMA_NAMES),
    ("identities", _identity_row, IDENTITY_IDS),
    ("special_cases", _special_row, SPECIAL_KINDS),
)


def _row(task: tuple) -> Dict[str, object]:
    """One suite row from a ``(section, row function, config, name, index)`` task."""
    _, row_fn, config, name, i = task
    return row_fn(config, name, i)


def run_suite(config: SuiteConfig) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Run all row groups; returns (summary, rows).

    With ``jobs > 1`` the rows run in that many forked worker processes, but
    never more than there are rows, created for this call and joined before
    it returns.  Row order, and so
    the CSV bytes, are the same at any worker count: tasks are enumerated up
    front as picklable (section, row function, config, name, index) tuples and
    results collected by position.
    """
    tasks = [
        (section, row_fn, config, name, i)
        for section, row_fn, names in _ROW_GROUPS
        for name in names
        for i in range(config.instances)
    ]
    if config.jobs > 1:
        # Imported here: the serial path should not pay their memory.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Fork, named because Python 3.14 drops it as the Linux default:
        # workers inherit the imported package and its warm caches.
        context = multiprocessing.get_context("fork")
        # The pool starts all its workers at once, so cap them at the rows.
        workers = min(config.jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            results = list(pool.map(_row, tasks))
    else:
        results = [_row(task) for task in tasks]

    sections: Dict[str, Dict[str, int]] = {}
    for (section, *_), row in zip(tasks, results):
        stats = sections.setdefault(section, {"rows": 0, "passed": 0})
        stats["rows"] += 1
        stats["passed"] += bool(row["pass"])
    passed = sum(1 for row in results if row["pass"])
    summary = {
        "backend": config.backend,
        "seed": config.seed,
        "instances_per_group": config.instances,
        "residual_tol": config.residual_tol,
        "rows": len(results),
        "passed": passed,
        "failed": len(results) - passed,
        "sections": sections,
        "all_pass": passed == len(results),
    }
    return summary, results


def write_rows_csv(rows: Sequence[Dict[str, object]], path: str) -> None:
    """Write suite rows with the fixed column set; booleans lowercase, a
    missing residual empty, so identical rows give identical bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)
