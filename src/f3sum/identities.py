"""Resummation rules for the triple series, plus classical summation lemmas.

A rule rewrites one evaluation of the triple series as a weighted outer sum of
shifted evaluations:

    sum over k >= 0 of  w(k) * F(params(k); inner args)
        ==  prefactor * F(rewritten params; rewritten args)

Every weight ``w(k)`` is a ratio of Pochhammer symbols times a geometric
factor and an implicit 1/k!.  The left side is summed adaptively (exactly,
when upstairs factors cut it off); each inner evaluation reuses the engine in
:mod:`f3sum.f3core`.  ``check_identity`` runs both sides and reports the
relative residual together with convergence diagnostics.

The closed-form lemmas at the bottom (binomial, Vandermonde, Saalschutz, and
three terminating series with quadratic parameter patterns) return exact
values for terminating input.  The suite and the tests check each against
its series summed by :func:`f3sum.f3core.eval_pfq`, the triple series engine
on the m1 axis; the lemmas share no algebra with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    DenominatorPoleError,
    F3Error,
    InvalidInputError,
    InvalidInstanceError,
    PoleAtOneError,
)
from .numerics import (
    EvaluationResult,
    Number,
    TruncationPolicy,
    adaptive_sum,
    exact_div,
    classify_backend,
    is_integer_valued,
    is_nonpositive_integer,
    magnitude_as_float,
    number_pow,
    pochhammer,
    pochhammer_product,
)
from .params import (
    FAMILY_COMBO,
    FamilyIndex,
    ParameterSet,
    entry_value,
    families_along,
    format_number,
    parameter_set_from_json,
    parse_number,
    termination_bound,
)
from .f3core import ArgumentTriple, arguments_from_json, eval_f3


@dataclass(frozen=True)
class IdentityInstance:
    """One concrete input for a rule: parameters, arguments, the indexed
    entry the rule acts on (when it acts on one), and its free scalars."""

    identity_id: str
    ps: ParameterSet
    args: ArgumentTriple
    idx: Optional[FamilyIndex] = None
    scalars: Tuple[Tuple[str, Number], ...] = ()

    def __post_init__(self) -> None:
        raw = self.scalars
        if isinstance(raw, Mapping):
            object.__setattr__(self, "scalars", tuple(sorted(raw.items())))
        elif not isinstance(raw, tuple):
            object.__setattr__(self, "scalars", tuple(raw))

    def scalar(self, name: str) -> Number:
        for key, value in self.scalars:
            if key == name:
                return value
        raise InvalidInstanceError(
            f"identity {self.identity_id} needs scalar {name!r}"
        )

    def scalar_names(self) -> Tuple[str, ...]:
        return tuple(key for key, _ in self.scalars)

    @property
    def indexed_value(self) -> Number:
        if self.idx is None:
            raise InvalidInstanceError(
                f"identity {self.identity_id} carries no indexed entry"
            )
        return entry_value(self.ps, self.idx)

    @property
    def backend(self) -> str:
        values = [*self.ps.representatives, *self.args]
        values.extend(v for _, v in self.scalars)
        return classify_backend(values)


def dd_weight(k: int, d: Number) -> Number:
    """Quadratic outer weight (d + 2k) * (d+1)_(k-1), with value 1 at k = 0.

    This is the pole-free form of the Pochhammer quotient
    (d)_k (1 + d/2)_k / (d/2)_k; unlike the quotient it stays defined at
    d = 0 and at negative even d.
    """
    if k == 0:
        return 1
    return (d + 2 * k) * pochhammer(d + 1, k - 1)


@dataclass(frozen=True)
class WeightShape:
    """Declarative form of an outer weight w(k).

    upper/lower families enter as whole-family Pochhammer products of order
    k, except that an upper family leaves out the instance's indexed entry.
    ``extra_upper``/``extra_lower`` contribute scalar Pochhammer
    factors, ``power_base`` a geometric factor base**k, ``double_step`` the
    quadratic factor :func:`dd_weight`.  An implicit 1/k! always applies.

    The same factors decide where a non-terminating outer sum converges:
    w(k) grows like (k!)**excess * base**k (:func:`weight_divergence`), and
    an ``extra_lower`` value at a nonpositive integer puts the weight at a
    pole, which :func:`validate_instance` rejects.
    """

    upper_families: Tuple[str, ...] = ()
    lower_families: Tuple[str, ...] = ()
    extra_upper: Callable[[IdentityInstance], Tuple[Number, ...]] = lambda inst: ()
    extra_lower: Callable[[IdentityInstance], Tuple[Number, ...]] = lambda inst: ()
    power_base: Callable[[IdentityInstance], Number] = lambda inst: 1
    double_step: bool = False


def _family_minus_index(inst: IdentityInstance, name: str) -> Tuple[Number, ...]:
    values = inst.ps.family(name)
    if inst.idx is not None and inst.idx.family == name:
        j = inst.idx.i - 1
        values = values[:j] + values[j + 1:]
    return values


def weight_value(shape: WeightShape, inst: IdentityInstance, k: int) -> Number:
    num: Number = 1
    for name in shape.upper_families:
        num = num * pochhammer_product(_family_minus_index(inst, name), k)
    for v in shape.extra_upper(inst):
        num = num * pochhammer(v, k)
    if shape.double_step:
        num = num * dd_weight(k, inst.scalar("d"))
    num = num * number_pow(shape.power_base(inst), k)
    den: Number = math.factorial(k)
    for name in shape.lower_families:
        p = pochhammer_product(inst.ps.family(name), k)
        if p == 0:
            raise DenominatorPoleError(
                f"downstairs family {name!r} vanishes in the outer weight at k={k}"
            )
        den = den * p
    for v in shape.extra_lower(inst):
        p = pochhammer(v, k)
        if p == 0:
            raise DenominatorPoleError(
                f"downstairs scalar {v!r} vanishes in the outer weight at k={k}"
            )
        den = den * p
    return exact_div(num, den)


def weight_bound(shape: WeightShape, inst: IdentityInstance) -> Optional[int]:
    """Largest k with possibly nonzero weight, or None when the outer sum
    never terminates."""
    bounds: List[int] = []
    for name in shape.upper_families:
        b = termination_bound(_family_minus_index(inst, name))
        if b is not None:
            bounds.append(b)
    for v in shape.extra_upper(inst):
        if is_nonpositive_integer(v):
            bounds.append(-int(v))
    if shape.double_step:
        d = inst.scalar("d")
        if is_nonpositive_integer(d) and d != 0:
            bounds.append(-int(d))
    if shape.power_base(inst) == 0:
        bounds.append(0)
    return min(bounds) if bounds else None


def weight_divergence(shape: WeightShape, inst: IdentityInstance) -> Optional[str]:
    """Why a non-terminating outer sum cannot converge, or None.

    Horn's criterion on the one index k: w(k+1)/w(k) grows like
    k**excess * base, where excess counts upstairs factors (upper-family
    entries without the indexed one, ``extra_upper``, and one for
    ``double_step``) minus downstairs factors (lower-family entries,
    ``extra_lower``, and the 1/k!).  A positive excess means radius zero;
    at zero excess the sum needs |base| < 1.
    """
    up = sum(len(_family_minus_index(inst, name)) for name in shape.upper_families)
    up += len(shape.extra_upper(inst)) + shape.double_step
    down = sum(len(inst.ps.family(name)) for name in shape.lower_families)
    down += len(shape.extra_lower(inst))
    excess = up - down - 1
    if excess > 0:
        return (
            f"outer weight grows like (k!)**{excess}: the outer sum has zero "
            "radius of convergence"
        )
    if excess == 0:
        ratio = abs(shape.power_base(inst))
        if ratio >= 1:
            return (
                f"outer geometric ratio |power_base| = {magnitude_as_float(ratio)} "
                ">= 1: the outer sum diverges"
            )
    return None


@dataclass(frozen=True)
class IdentityRule:
    """One resummation rule: weight, left-side shifts, right-side rewrite.

    The parts a rule leaves out pass the instance through unchanged: the
    left side's inner arguments, the right side's parameters and arguments,
    and a prefactor of 1."""

    identity_id: str
    summary: str
    indexed_family: Optional[str]
    scalar_names: Tuple[str, ...]
    weight: WeightShape
    lhs_params: Callable[[IdentityInstance, int], ParameterSet]
    lhs_args: Callable[[IdentityInstance], ArgumentTriple] = lambda inst: inst.args
    rhs_prefactor: Callable[[IdentityInstance], Number] = lambda inst: 1
    rhs_params: Callable[[IdentityInstance], ParameterSet] = lambda inst: inst.ps
    rhs_args: Callable[[IdentityInstance], ArgumentTriple] = lambda inst: inst.args
    extra_validation: Optional[Callable[[IdentityInstance], None]] = None


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one two-sided identity evaluation."""

    identity_id: str
    passed: bool
    lhs: Optional[Number] = None
    rhs: Optional[Number] = None
    residual: Optional[float] = None
    lhs_diag: Optional[EvaluationResult] = None
    rhs_diag: Optional[EvaluationResult] = None
    reason: Optional[str] = None

    @property
    def converged_lhs(self) -> bool:
        return bool(self.lhs_diag and self.lhs_diag.converged)

    @property
    def converged_rhs(self) -> bool:
        return bool(self.rhs_diag and self.rhs_diag.converged)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "identity_id": self.identity_id,
            "pass": self.passed,
            "lhs": None if self.lhs is None else format_number(self.lhs),
            "rhs": None if self.rhs is None else format_number(self.rhs),
            "residual": self.residual,
            "converged_lhs": self.converged_lhs,
            "converged_rhs": self.converged_rhs,
            "reason": self.reason,
        }


# ---------------------------------------------------------------------------
# Shared pieces for the rule table.


def _splice(
    inst: IdentityInstance, values: Tuple[Number, ...], entry: Tuple[Number, ...]
) -> Tuple[Number, ...]:
    """``values`` with the indexed position replaced by the entries of
    ``entry``; raises InvalidIndexError when the index is out of range."""
    inst.idx.check_against(inst.ps)
    j = inst.idx.i - 1
    return values[:j] + entry + values[j + 1:]


def _shifted(
    inst: IdentityInstance, names: Sequence[str], k: int, keep_indexed: bool = False
) -> ParameterSet:
    """``inst.ps`` with every entry of the named families raised by k; with
    ``keep_indexed`` the indexed entry keeps its old value."""
    fields = {name: tuple(v + k for v in inst.ps.family(name)) for name in names}
    if keep_indexed:
        name = inst.idx.family
        fields[name] = _splice(inst, fields[name], (inst.indexed_value,))
    return replace(inst.ps, **fields)


def _rewritten(
    inst: IdentityInstance,
    entry: Optional[Tuple[Number, ...]] = None,
    **appended: Tuple[Number, ...],
) -> ParameterSet:
    """``inst.ps`` with the indexed entry replaced by the entries of
    ``entry`` (``()`` drops it, None keeps it), then each family named in
    ``appended`` extended by its entries, in the order given."""
    fields: Dict[str, Tuple[Number, ...]] = {}
    if entry is not None:
        name = inst.idx.family
        fields[name] = _splice(inst, inst.ps.family(name), entry)
    for name, values in appended.items():
        fields[name] = fields.get(name, inst.ps.family(name)) + values
    return replace(inst.ps, **fields)


def _half(v: Number) -> Number:
    return exact_div(v, 2)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidInstanceError(message)


def _no_negative_even_d(inst: IdentityInstance) -> None:
    d = inst.scalar("d")
    _require(
        not (is_integer_valued(d) and d < 0 and int(d) % 2 == 0),
        "scalar d must not be a negative even integer: the quadratic weight "
        "is only equivalent to its Pochhammer-quotient form away from those points",
    )


# ---------------------------------------------------------------------------
# Rule constructors.


def _entry_shift_rule(rid: str, family: str) -> IdentityRule:
    """Single-entry shift resummation: the outer sum moves one entry of
    ``family`` up by k against a geometric weight in t; the right side keeps
    the parameters and rescales by 1/(1-t) the arguments of the directions
    the family's Pochhammer order follows, times the matching binomial
    prefactor."""
    scaled_dirs = tuple(d for d, w in enumerate(FAMILY_COMBO[family]) if w)

    def rhs_args(inst: IdentityInstance) -> ArgumentTriple:
        t = inst.scalar("t")
        xs = inst.args.to_list()
        for d in scaled_dirs:
            xs[d] = exact_div(xs[d], 1 - t)
        return ArgumentTriple(*xs)

    def validation(inst: IdentityInstance) -> None:
        _require(inst.scalar("t") != 1, "t = 1 puts the rewritten arguments at a pole")

    return IdentityRule(
        identity_id=rid,
        summary=(
            f"shift one entry of family {family!r} by a geometric outer sum; "
            f"arguments {tuple(d + 1 for d in scaled_dirs)} rescale by 1/(1-t)"
        ),
        indexed_family=family,
        scalar_names=("t",),
        weight=WeightShape(
            extra_upper=lambda inst: (inst.indexed_value,),
            power_base=lambda inst: inst.scalar("t"),
        ),
        lhs_params=lambda inst, k: _rewritten(inst, (inst.indexed_value + k,)),
        rhs_prefactor=lambda inst: number_pow(1 - inst.scalar("t"), -inst.indexed_value),
        rhs_args=rhs_args,
        extra_validation=validation,
    )


def _argument_shift_rule(rid: str, direction: int) -> IdentityRule:
    """Argument translation: summing k-shifts of every family coupled to one
    argument direction, weighted by the direction's own Pochhammer ratio and
    t**k, translates that argument by t."""
    upper, lower = families_along(direction)

    def rhs_args(inst: IdentityInstance) -> ArgumentTriple:
        xs = inst.args.to_list()
        xs[direction] = xs[direction] + inst.scalar("t")
        return ArgumentTriple(*xs)

    return IdentityRule(
        identity_id=rid,
        summary=f"translate argument x{direction + 1} by t through a full shift "
        f"of its coupled families",
        indexed_family=None,
        scalar_names=("t",),
        weight=WeightShape(
            upper_families=upper,
            lower_families=lower,
            power_base=lambda inst: inst.scalar("t"),
        ),
        lhs_params=lambda inst, k: _shifted(inst, upper + lower, k),
        rhs_args=rhs_args,
    )


def _x1_series_rule(
    rid: str,
    family: str,
    summary: str,
    rhs_params: Callable[[IdentityInstance], ParameterSet],
    extra_upper: Callable[[IdentityInstance], Tuple[Number, ...]] = lambda inst: (),
    extra_lower: Callable[[IdentityInstance], Tuple[Number, ...]] = lambda inst: (),
    alternating: bool = False,
    double_step: bool = False,
    scalar_names: Tuple[str, ...] = (),
    extra_validation: Optional[Callable[[IdentityInstance], None]] = None,
) -> IdentityRule:
    """Common frame for the rules whose outer variable is x1 itself: weight
    carries the x1-coupled upstairs families (minus the indexed entry),
    optional scalar factors, and (+-x1)**k over the x1-coupled downstairs
    families; the left side shifts the x1-coupled group.

    The sign and the shift go together: an ``alternating`` rule weights by
    (-x1)**k and shifts the whole group, indexed entry included; the others
    weight by x1**k and hold the indexed entry fixed."""

    upper, lower = families_along(0)

    def power_base(inst: IdentityInstance) -> Number:
        return -inst.args.x1 if alternating else inst.args.x1

    return IdentityRule(
        identity_id=rid,
        summary=summary,
        indexed_family=family,
        scalar_names=scalar_names,
        weight=WeightShape(
            upper_families=upper,
            lower_families=lower,
            extra_upper=extra_upper,
            extra_lower=extra_lower,
            power_base=power_base,
            double_step=double_step,
        ),
        lhs_params=lambda inst, k: _shifted(inst, upper + lower, k, keep_indexed=not alternating),
        rhs_params=rhs_params,
        extra_validation=extra_validation,
    )


# -- right-side rewrites for the x1-series rules ----------------------------


def _t3a_rhs(inst: IdentityInstance) -> ParameterSet:
    v, r = inst.indexed_value, inst.scalar("r")
    return _rewritten(inst, (v + r,), bp=(v,), gp=(v + r,))


def _t3c_rhs(inst: IdentityInstance) -> ParameterSet:
    return _rewritten(inst, (inst.indexed_value + inst.scalar("r"),))


def _t4a_rhs(inst: IdentityInstance) -> ParameterSet:
    v = inst.indexed_value
    return _rewritten(inst, c=(v - inst.scalar("d"),), h=(v,))


def _t4c_rhs(inst: IdentityInstance) -> ParameterSet:
    return _rewritten(inst, (inst.indexed_value + (-inst.scalar("d")),))


def _t5c_rhs(inst: IdentityInstance) -> ParameterSet:
    v, r, d = inst.indexed_value, inst.scalar("r"), inst.scalar("d")
    return _rewritten(inst, (), c=(v + r, v + d), h=(v + r + d,))


def _t6a_rhs(inst: IdentityInstance) -> ParameterSet:
    v, d = inst.indexed_value, inst.scalar("d")
    return _rewritten(inst, c=(2 + d - v, v - d - 1), h=(1 + d - v, v))


def _t6c_rhs(inst: IdentityInstance) -> ParameterSet:
    v, d = inst.indexed_value, inst.scalar("d")
    return _rewritten(inst, (), c=(2 + d - v, v - d - 1), h=(1 + d - v,))


def _t7c_rhs(inst: IdentityInstance) -> ParameterSet:
    v, r = inst.indexed_value, inst.scalar("r")
    return _rewritten(
        inst, (),
        c=(v + r, _half(v), 1 + _half(v + r)),
        h=(1 + r + _half(v), _half(v + r)),
    )


def _t8c_rhs(inst: IdentityInstance) -> ParameterSet:
    v, d = inst.indexed_value, inst.scalar("d")
    return _rewritten(inst, (), c=(_half(v), v + d), h=(1 + d + _half(v),))


# -- rules that rescale x1 while removing the indexed entry -----------------


def _scaled_x1_args(inst: IdentityInstance, scale_num: Number, scale_den: Number) -> ArgumentTriple:
    x1 = inst.args.x1
    new_x1: Number = 0 if x1 == 0 else x1 * exact_div(scale_num, scale_den)
    return ArgumentTriple(new_x1, inst.args.x2, inst.args.x3)


def _t9c_lhs_args(inst: IdentityInstance) -> ArgumentTriple:
    t = inst.scalar("t")
    return _scaled_x1_args(inst, 1 + t, t)


def _t9c_validation(inst: IdentityInstance) -> None:
    t = inst.scalar("t")
    _require(t != -1, "t = -1 puts the binomial prefactor at a pole")
    _require(
        t != 0 or inst.args.x1 == 0,
        "t = 0 needs x1 = 0: the rescaled first argument is x1 (1+t)/t",
    )


def _t10c_lhs_args(inst: IdentityInstance) -> ArgumentTriple:
    t = inst.scalar("t")
    return _scaled_x1_args(inst, 1 + t, t + inst.args.x1)


def _t10c_validation(inst: IdentityInstance) -> None:
    t = inst.scalar("t")
    x1 = inst.args.x1
    _require(x1 != 1, "x1 = 1 puts the outer geometric ratio at a pole")
    _require(t != -1, "t = -1 puts the binomial prefactor at a pole")
    _require(
        x1 == 0 or t + x1 != 0,
        "t + x1 = 0 needs x1 = 0: the rescaled first argument is x1 (1+t)/(t+x1)",
    )


def _drop_and_push_negative_k(inst: IdentityInstance, k: int) -> ParameterSet:
    return _rewritten(inst, (), c=(-k,))


# ---------------------------------------------------------------------------
# The rule table.

RULES: Dict[str, IdentityRule] = {}


def _register(rule: IdentityRule) -> None:
    RULES[rule.identity_id] = rule


_register(_entry_shift_rule("T1a", "a"))
_register(_entry_shift_rule("T1b", "b"))
_register(_entry_shift_rule("T1c", "c"))

_register(_argument_shift_rule("T2x1", 0))
_register(_argument_shift_rule("T2x2", 1))
_register(_argument_shift_rule("T2x3", 2))

_register(_x1_series_rule(
    "T3a", "a",
    "raise one a-entry by r: an r-weighted x1-series adds balancing entries to bp and gp",
    extra_upper=lambda inst: (inst.scalar("r"),),
    rhs_params=_t3a_rhs,
    scalar_names=("r",),
))
_register(_x1_series_rule(
    "T3c", "c",
    "raise one c-entry by r through an r-weighted x1-series",
    extra_upper=lambda inst: (inst.scalar("r"),),
    rhs_params=_t3c_rhs,
    scalar_names=("r",),
))
_register(_x1_series_rule(
    "T4a", "a",
    "alternating d-weighted x1-series turns one a-entry into new c and h entries",
    extra_upper=lambda inst: (inst.scalar("d"),),
    rhs_params=_t4a_rhs,
    alternating=True,
    scalar_names=("d",),
))
_register(_x1_series_rule(
    "T4c", "c",
    "lower one c-entry by d through an alternating x1-series",
    extra_upper=lambda inst: (inst.scalar("d"),),
    rhs_params=_t4c_rhs,
    alternating=True,
    scalar_names=("d",),
))
_register(_x1_series_rule(
    "T5c", "c",
    "split one c-entry into offsets by r and by d, with a balancing h-entry",
    extra_upper=lambda inst: (inst.scalar("d"), inst.scalar("r")),
    extra_lower=lambda inst: (inst.scalar("d") + inst.scalar("r") + inst.indexed_value,),
    rhs_params=_t5c_rhs,
    scalar_names=("d", "r"),
))
_register(_x1_series_rule(
    "T6a", "a",
    "quadratic-weight x1-series turns one a-entry into two c and two h entries",
    rhs_params=_t6a_rhs,
    alternating=True,
    double_step=True,
    scalar_names=("d",),
    extra_validation=_no_negative_even_d,
))
_register(_x1_series_rule(
    "T6c", "c",
    "quadratic-weight x1-series replaces one c-entry by two c and one h entries",
    rhs_params=_t6c_rhs,
    alternating=True,
    double_step=True,
    scalar_names=("d",),
    extra_validation=_no_negative_even_d,
))
_register(_x1_series_rule(
    "T7c", "c",
    "halving rewrite of one c-entry into three c and two h entries",
    extra_upper=lambda inst: (inst.scalar("r"), -_half(inst.indexed_value)),
    extra_lower=lambda inst: (1 + inst.scalar("r") + _half(inst.indexed_value),),
    rhs_params=_t7c_rhs,
    scalar_names=("r",),
))

_register(_x1_series_rule(
    "T8c", "c",
    "halving rewrite with quadratic weight: one c-entry becomes two c and one h entries",
    extra_upper=lambda inst: (-_half(inst.indexed_value),),
    extra_lower=lambda inst: (1 + inst.scalar("d") + _half(inst.indexed_value),),
    rhs_params=_t8c_rhs,
    double_step=True,
    scalar_names=("d",),
    extra_validation=_no_negative_even_d,
))

_register(IdentityRule(
    identity_id="T9c",
    summary="remove one c-entry by a binomial outer sum against a geometric rescale of x1",
    indexed_family="c",
    scalar_names=("t",),
    weight=WeightShape(
        extra_upper=lambda inst: (inst.indexed_value,),
        power_base=lambda inst: -inst.scalar("t"),
    ),
    lhs_params=_drop_and_push_negative_k,
    lhs_args=_t9c_lhs_args,
    rhs_prefactor=lambda inst: number_pow(1 + inst.scalar("t"), -inst.indexed_value),
    extra_validation=_t9c_validation,
))

_register(IdentityRule(
    identity_id="T10c",
    summary="remove one c-entry by a binomial outer sum against a Moebius rescale of x1",
    indexed_family="c",
    scalar_names=("t",),
    weight=WeightShape(
        extra_upper=lambda inst: (inst.indexed_value,),
        power_base=lambda inst: exact_div(
            inst.scalar("t") + inst.args.x1, inst.args.x1 - 1
        ),
    ),
    lhs_params=_drop_and_push_negative_k,
    lhs_args=_t10c_lhs_args,
    rhs_prefactor=lambda inst: number_pow(
        exact_div(1 - inst.args.x1, 1 + inst.scalar("t")), inst.indexed_value
    ),
    extra_validation=_t10c_validation,
))

IDENTITY_IDS: Tuple[str, ...] = tuple(RULES)


def get_rule(identity_id: str) -> IdentityRule:
    try:
        return RULES[identity_id]
    except KeyError:
        raise InvalidInstanceError(f"unknown identity id {identity_id!r}") from None


def list_identities() -> List[Dict[str, object]]:
    return [
        {
            "id": rule.identity_id,
            "summary": rule.summary,
            "indexed_family": rule.indexed_family,
            "scalars": list(rule.scalar_names),
        }
        for rule in RULES.values()
    ]


def validate_instance(inst: IdentityInstance) -> IdentityRule:
    """Check structural well-formedness; raises InvalidInstanceError."""
    rule = get_rule(inst.identity_id)
    inst.backend  # raises on mixed backends
    given = sorted(inst.scalar_names())
    needed = sorted(rule.scalar_names)
    if given != needed:
        raise InvalidInstanceError(
            f"identity {rule.identity_id} takes scalars {needed}, got {given}"
        )
    if rule.indexed_family is None:
        if inst.idx is not None:
            raise InvalidInstanceError(
                f"identity {rule.identity_id} does not take an indexed entry"
            )
    else:
        if inst.idx is None:
            raise InvalidInstanceError(
                f"identity {rule.identity_id} needs an index into family "
                f"{rule.indexed_family!r}"
            )
        if inst.idx.family != rule.indexed_family:
            raise InvalidInstanceError(
                f"identity {rule.identity_id} acts on family "
                f"{rule.indexed_family!r}, not {inst.idx.family!r}"
            )
        inst.idx.check_against(inst.ps)
    if rule.extra_validation is not None:
        rule.extra_validation(inst)
    for v in rule.weight.extra_lower(inst):
        _require(
            not is_nonpositive_integer(v),
            f"downstairs weight factor {format_number(v)} is a nonpositive "
            "integer, placing the outer weight at a pole",
        )
    return rule


def derived_policy(
    residual_tol: float, max_total_degree: int = 28, stall_window: int = 3
) -> TruncationPolicy:
    """Series truncation for a two-sided check: four orders of magnitude
    below the residual tolerance, floored at 1e-15."""
    return TruncationPolicy(
        tol=max(residual_tol * 1e-4, 1e-15),
        max_total_degree=max_total_degree,
        stall_window=stall_window,
    )


def _lhs_value(
    rule: IdentityRule,
    inst: IdentityInstance,
    policy: TruncationPolicy,
    outer_policy: TruncationPolicy,
    bound: Optional[int],
) -> Tuple[Number, EvaluationResult]:
    """Outer weighted sum of shifted evaluations, with joint diagnostics;
    ``bound`` is the weight's last nonzero k, or None."""
    inner_args = rule.lhs_args(inst)
    inner_results: List[EvaluationResult] = []

    def term(k: int) -> Number:
        w = weight_value(rule.weight, inst, k)
        if w == 0:
            # Skip the inner evaluation entirely: beyond a terminating
            # weight the shifted parameters may sit on poles the identity
            # never touches.
            return 0
        res = eval_f3(rule.lhs_params(inst, k), inner_args, policy)
        inner_results.append(res)
        return w * res.value

    outer = adaptive_sum(map(term, itertools.count()), outer_policy, exact_bound=bound)
    converged = outer.converged and all(r.converged for r in inner_results)
    terminated = outer.terminated_exactly and all(
        r.terminated_exactly for r in inner_results
    )
    diag = EvaluationResult(
        value=outer.value,
        shells_used=outer.shells_used,
        last_shell_magnitude=outer.last_shell_magnitude,
        converged=converged,
        terminated_exactly=terminated,
    )
    return outer.value, diag


def _rhs_value(
    rule: IdentityRule,
    inst: IdentityInstance,
    policy: TruncationPolicy,
) -> Tuple[Number, EvaluationResult]:
    """Prefactor times the single rewritten evaluation."""
    pref = rule.rhs_prefactor(inst)
    res = eval_f3(rule.rhs_params(inst), rule.rhs_args(inst), policy)
    return pref * res.value, res


def _relative_residual(lhs: Number, rhs: Number) -> Number:
    diff = abs(lhs - rhs)
    ref = abs(rhs)
    if isinstance(diff, float) or isinstance(ref, float):
        return diff / max(ref, 1e-300)
    if ref == 0:
        ref = Fraction(1, 10**300)
    return exact_div(diff, ref)


def check_identity(
    inst: IdentityInstance,
    policy: Optional[TruncationPolicy] = None,
    residual_tol: float = 1e-8,
    outer_cap: int = 40,
) -> CheckReport:
    """Evaluate both sides of one rule and compare.

    Malformed instances raise InvalidInstanceError.  Inputs outside the
    convergence domain of a non-terminating outer sum, which
    :func:`weight_divergence` reads off the weight's growth, and evaluation
    failures (any F3Error, such as a pole or an inexact power, a division by
    zero or a float overflow), come back as failed reports with a reason
    rather than exceptions; any other exception is a bug and propagates.  A
    report passes when both sides converged and the relative residual is
    within residual_tol; the residual comparison is exact in the rational
    backend.
    """
    rule = validate_instance(inst)
    # Checked before the try: a negative or NaN tolerance, like a cap below 1
    # (which the outer policy rejects), is a caller error, not a failed check.
    if not residual_tol >= 0:
        raise InvalidInputError(f"residual_tol must be >= 0, got {residual_tol!r}")
    if policy is None:
        policy = derived_policy(residual_tol)
    outer_policy = TruncationPolicy(
        tol=policy.tol,
        max_total_degree=outer_cap,
        stall_window=policy.stall_window,
    )
    bound = weight_bound(rule.weight, inst)
    if bound is None:
        reason = weight_divergence(rule.weight, inst)
        if reason is not None:
            return CheckReport(
                identity_id=inst.identity_id, passed=False, reason=reason
            )

    try:
        lhs, lhs_diag = _lhs_value(rule, inst, policy, outer_policy, bound)
        rhs, rhs_diag = _rhs_value(rule, inst, policy)
    except (F3Error, ZeroDivisionError, OverflowError) as exc:
        return CheckReport(
            identity_id=inst.identity_id,
            passed=False,
            reason=f"{type(exc).__name__}: {exc}",
        )

    residual = _relative_residual(lhs, rhs)
    passed = bool(
        lhs_diag.converged and rhs_diag.converged and residual <= residual_tol
    )
    return CheckReport(
        identity_id=inst.identity_id,
        passed=passed,
        lhs=lhs,
        rhs=rhs,
        residual=magnitude_as_float(residual),
        lhs_diag=lhs_diag,
        rhs_diag=rhs_diag,
        reason=None if passed else "residual above tolerance or non-convergence",
    )


def instance_from_json(data: Mapping[str, object], backend: str) -> IdentityInstance:
    """Build an instance from its JSON form:

    {"id": ..., "params": {family: [entries]}, "args": [x1, x2, x3],
     "index": {"family": ..., "i": ...}, "scalars": {name: value}}
    """
    if not isinstance(data, Mapping):
        raise InvalidInstanceError(f"instance JSON must be an object, got {data!r}")
    try:
        identity_id = data["id"]
        params = data["params"]
        args = data["args"]
    except KeyError as exc:
        raise InvalidInstanceError(f"instance JSON is missing key {exc}") from None
    if not isinstance(identity_id, str):
        raise InvalidInstanceError(f'"id" must be a string, got {identity_id!r}')
    get_rule(identity_id)
    ps = parameter_set_from_json(params, backend)
    triple = arguments_from_json(args, backend)
    idx = None
    raw_idx = data.get("index")
    if raw_idx is not None:
        if not isinstance(raw_idx, Mapping) or "family" not in raw_idx:
            raise InvalidInstanceError(
                f'"index" must be an object with a "family" key, got {raw_idx!r}'
            )
        i = raw_idx.get("i", 1)
        if isinstance(i, bool) or not isinstance(i, int):
            raise InvalidInstanceError(f'"index" field "i" must be an int, got {i!r}')
        idx = FamilyIndex(family=raw_idx["family"], i=i)
    raw_scalars = data.get("scalars")
    if raw_scalars is None:
        raw_scalars = {}
    if not isinstance(raw_scalars, Mapping):
        raise InvalidInstanceError(f'"scalars" must be an object, got {raw_scalars!r}')
    scalars = {name: parse_number(value, backend) for name, value in raw_scalars.items()}
    return IdentityInstance(
        identity_id=identity_id, ps=ps, args=triple, idx=idx, scalars=scalars
    )


def instance_to_json(inst: IdentityInstance) -> Dict[str, object]:
    out: Dict[str, object] = {
        "id": inst.identity_id,
        "params": inst.ps.to_json_dict(),
        "args": [format_number(x) for x in inst.args],
    }
    if inst.idx is not None:
        out["index"] = {"family": inst.idx.family, "i": inst.idx.i}
    if inst.scalars:
        out["scalars"] = {name: format_number(v) for name, v in inst.scalars}
    return out


# ---------------------------------------------------------------------------
# Closed-form summation lemmas.


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


def vandermonde_2f1(n: int, a: Number, c: Number) -> Number:
    """2F1(-n, a; c; 1) = (c-a)_n / (c)_n."""
    _check_order(n)
    return _ratio(pochhammer(c - a, n), pochhammer(c, n), "2F1(-n,a;c;1)")


def saalschutz_3f2(n: int, a: Number, b: Number, c: Number) -> Number:
    """3F2(-n, a, b; c, 1+a+b-c-n; 1) = (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n)."""
    _check_order(n)
    return _ratio(
        pochhammer(c - a, n) * pochhammer(c - b, n),
        pochhammer(c, n) * pochhammer(c - a - b, n),
        "balanced 3F2",
    )


def nearly_poised_3f2(n: int, a: Number, b: Number) -> Number:
    """3F2(-n, a, 1+a/2; a/2, b; 1) = (b-a-1-n) (b-a)_(n-1) / (b)_n.

    At n = 0 the series is 1; the closed form needs b - a != 1 there.
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
    _check_order(n)
    return _ratio(
        pochhammer(a - 2 * b, n)
        * pochhammer(1 + _half(a) - b, n)
        * pochhammer(-b, n),
        pochhammer(1 + a - b, n)
        * pochhammer(_half(a) - b, n)
        * pochhammer(-2 * b, n),
        "two-b balanced 3F2",
    )


def watson_4f3(n: int, a: Number, b: Number) -> Number:
    """4F3(-n, a, 1+a/2, b; a/2, 1+a-b, 1+2b-n; 1)
       = (a-2b)_n (-b)_n / ((1+a-b)_n (-2b)_n)."""
    _check_order(n)
    return _ratio(
        pochhammer(a - 2 * b, n) * pochhammer(-b, n),
        pochhammer(1 + a - b, n) * pochhammer(-2 * b, n),
        "Watson-type 4F3",
    )
