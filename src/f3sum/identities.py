"""Resummation rules for the triple series.

A rule rewrites one evaluation of the triple series as a weighted outer sum of
shifted evaluations:

    sum over k >= 0 of  w(k) * F(params(k); inner args)
        ==  prefactor * F(rewritten params; rewritten args)

Every weight ``w(k)`` is a ratio of Pochhammer symbols times a geometric
factor and an implicit 1/k!.  A rule declares it as a :class:`WeightShape`;
one reader turns the shape and an instance into concrete factors, and the
weight's value, its cutoff, its divergence and its downstairs poles are all
read from those factors.

Every rule comes from one frame.  Its weight carries the families of one
argument direction, or none, and its left side is read off that weight:
every entry of the weight's families rises by k, and the rule's indexed
entry takes one declared step (it rises by k, is held, or leaves its place
for the int -k at the end of its family).  A binomial rule is the frame
with no families and the weight (v)_k base**k / k! on its indexed entry v.
An x1-series rule rests on a finite summation theorem: ``LEMMAS`` declares
each closed form once, the suite's lemma rows check it, and the rule's
right side is read off it.
The left side is summed adaptively (exactly, when upstairs factors cut it
off); each inner evaluation reuses the engine in :mod:`f3sum.f3core`.
``check_identity`` runs both sides and reports the relative residual
together with convergence diagnostics.
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

# The defaults of a two-sided check, shared by every caller that forwards
# its own: special cases, the suite and the command line.
DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_OUTER_CAP = 40


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
        # Sorted by name in either form, so equal scalars give equal instances.
        raw = self.scalars
        items = raw.items() if isinstance(raw, Mapping) else raw
        object.__setattr__(self, "scalars", tuple(sorted(items)))

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
    w(k) grows like (k!)**excess * base**k (:func:`weight_divergence`).
    :func:`validate_instance` rejects an ``extra_lower`` value at a
    nonpositive integer, a pole of the weight, and with ``double_step`` a
    negative even d, where the quadratic factor stops matching its
    Pochhammer-quotient form.
    """

    upper_families: Tuple[str, ...] = ()
    lower_families: Tuple[str, ...] = ()
    extra_upper: Callable[[IdentityInstance], Tuple[Number, ...]] = lambda inst: ()
    extra_lower: Callable[[IdentityInstance], Tuple[Number, ...]] = lambda inst: ()
    power_base: Callable[[IdentityInstance], Number] = lambda inst: 1
    double_step: bool = False


def _weight_factors(
    shape: WeightShape, inst: IdentityInstance
) -> Tuple[list, list, Optional[Number], Number]:
    """The weight's concrete factors on one instance, in multiplication order:
    ``(upper, lower, d, base)`` with w(k) = prod (v)_k over each upper group,
    times dd_weight(k, d) when d is not None, times base**k, over k! times
    prod (v)_k over each lower group.

    The upper groups are the upper families less the indexed entry, then
    each extra upstairs scalar alone.  The lower groups are ``(name,
    entries)`` pairs: each lower family, then each extra downstairs scalar
    alone, named None."""
    idx = inst.idx
    upper = [
        _splice(inst, inst.ps.family(name), ())
        if idx is not None and idx.family == name
        else inst.ps.family(name)
        for name in shape.upper_families
    ]
    upper += [(v,) for v in shape.extra_upper(inst)]
    lower = [(name, inst.ps.family(name)) for name in shape.lower_families]
    lower += [(None, (v,)) for v in shape.extra_lower(inst)]
    d = inst.scalar("d") if shape.double_step else None
    return upper, lower, d, shape.power_base(inst)


def weight_value(shape: WeightShape, inst: IdentityInstance, k: int) -> Number:
    upper, lower, d, base = _weight_factors(shape, inst)
    num: Number = 1
    for values in upper:
        num = num * pochhammer_product(values, k)
    if d is not None:
        num = num * dd_weight(k, d)
    num = num * number_pow(base, k)
    den: Number = math.factorial(k)
    for name, values in lower:
        p = pochhammer_product(values, k)
        if p == 0:
            what = f"scalar {values[0]!r}" if name is None else f"family {name!r}"
            raise DenominatorPoleError(
                f"downstairs {what} vanishes in the outer weight at k={k}"
            )
        den = den * p
    return exact_div(num, den)


def weight_bound(shape: WeightShape, inst: IdentityInstance) -> Optional[int]:
    """Largest k with possibly nonzero weight, or None when the outer sum
    never terminates."""
    upper, _, d, base = _weight_factors(shape, inst)
    bounds = [b for b in map(termination_bound, upper) if b is not None]
    if d is not None and is_nonpositive_integer(d) and d != 0:
        bounds.append(-int(d))
    if base == 0:
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
    upper, lower, d, base = _weight_factors(shape, inst)
    up = sum(map(len, upper)) + (d is not None)
    down = sum(len(values) for _, values in lower)
    excess = up - down - 1
    if excess > 0:
        return (
            f"outer weight grows like (k!)**{excess}: the outer sum has zero "
            "radius of convergence"
        )
    if excess == 0:
        ratio = abs(base)
        if ratio >= 1:
            return (
                f"outer geometric ratio |power_base| = {magnitude_as_float(ratio)} "
                ">= 1: the outer sum diverges"
            )
    return None


@dataclass(frozen=True)
class IdentityRule:
    """One resummation rule: weight, indexed step, right-side rewrite.

    The left side's parameters are read off the weight and the indexed step
    (:meth:`lhs_params`).  The parts a rule leaves out pass the instance
    through unchanged: the left side's inner arguments, the right side's
    parameters and arguments, and a prefactor of 1."""

    identity_id: str
    summary: str
    indexed_family: Optional[str]
    scalar_names: Tuple[str, ...]
    weight: WeightShape
    indexed_step: int = 1
    lhs_args: Callable[[IdentityInstance], ArgumentTriple] = lambda inst: inst.args
    rhs_prefactor: Callable[[IdentityInstance], Number] = lambda inst: 1
    rhs_params: Callable[[IdentityInstance], ParameterSet] = lambda inst: inst.ps
    rhs_args: Callable[[IdentityInstance], ArgumentTriple] = lambda inst: inst.args
    extra_validation: Optional[Callable[[IdentityInstance], None]] = None

    def lhs_params(self, inst: IdentityInstance, k: int) -> ParameterSet:
        """The left side's parameters at outer index k: every entry of the
        weight's families raised by k, then the indexed entry v stepped by
        ``indexed_step``: +1 puts v + k in its place, 0 holds v, and -1
        drops it and appends the int -k to its family.  Built with
        :meth:`ParameterSet.derived`, so only the changed families are
        classified, and the set keeps the instance's backend."""
        shape = self.weight
        fields = {
            name: tuple(v + k for v in inst.ps.family(name))
            for name in shape.upper_families + shape.lower_families
        }
        if self.indexed_family is not None:
            name, v, step = inst.idx.family, inst.indexed_value, self.indexed_step
            entry = (v + k,) if step > 0 else (v,) if step == 0 else ()
            values = _splice(inst, fields.get(name, inst.ps.family(name)), entry)
            fields[name] = values + ((-k,) if step < 0 else ())
        return inst.ps.derived(**fields)


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


def _rewritten(
    inst: IdentityInstance,
    entry: Optional[Tuple[Number, ...]] = None,
    **appended: Tuple[Number, ...],
) -> ParameterSet:
    """``inst.ps`` with the indexed entry replaced by the entries of
    ``entry`` (``()`` drops it, None keeps it), then each family named in
    ``appended`` extended by its entries, in the order given.  Built with
    :meth:`ParameterSet.derived`, like the left side's sets."""
    fields: Dict[str, Tuple[Number, ...]] = {}
    if entry is not None:
        name = inst.idx.family
        fields[name] = _splice(inst, inst.ps.family(name), entry)
    for name, values in appended.items():
        fields[name] = fields.get(name, inst.ps.family(name)) + values
    return inst.ps.derived(**fields)


def _half(v: Number) -> Number:
    return exact_div(v, 2)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidInstanceError(message)


# ---------------------------------------------------------------------------
# The rule frame.


def _rule(
    rid: str,
    direction: Optional[int],
    summary: str,
    power_base: Callable[[IdentityInstance], Number],
    family: Optional[str] = None,
    scalar_names: Tuple[str, ...] = ("t",),
    extra_upper: Callable[[IdentityInstance], Tuple[Number, ...]] = lambda inst: (),
    extra_lower: Callable[[IdentityInstance], Tuple[Number, ...]] = lambda inst: (),
    double_step: bool = False,
    **parts: Callable,
) -> IdentityRule:
    """The one rule frame: the weight carries the families of
    ``families_along(direction)`` (upstairs less the indexed entry; none
    when ``direction`` is None), the optional scalar factors and base**k,
    and :meth:`IdentityRule.lhs_params` raises that whole group by k.
    ``parts`` are the other :class:`IdentityRule` fields the rule sets, its
    ``indexed_step`` among them."""
    upper, lower = ((), ()) if direction is None else families_along(direction)
    return IdentityRule(
        identity_id=rid,
        summary=summary,
        indexed_family=family,
        scalar_names=scalar_names,
        weight=WeightShape(upper, lower, extra_upper, extra_lower, power_base, double_step),
        **parts,
    )


def _indexed_entry(inst: IdentityInstance) -> Tuple[Number, ...]:
    """A binomial weight's one upstairs factor: the indexed entry v."""
    return (inst.indexed_value,)


# ---------------------------------------------------------------------------
# The summation lemmas.

# The finite summation theorems the x1-series rules rest on, each closed
# form prod (num)_n / prod (den)_n declared once, as params -> (num, den).
# A rule sets the last parameter, which is also the last downstairs entry,
# to its indexed entry v.  The two-b and Watson sums take w = -2b.
LEMMAS: Dict[str, Callable[..., Tuple[Tuple[Number, ...], Tuple[Number, ...]]]] = {
    "vandermonde_2f1": lambda a, c: ((c - a,), (c,)),
    "saalschutz_3f2": lambda a, b, c: ((c - a, c - b), (c - a - b, c)),
    "nearly_poised_3f2": lambda a, b: ((2 + a - b, b - a - 1), (1 + a - b, b)),
    "twob_balanced_3f2": lambda a, w: (
        (a + w, _half(w), 1 + _half(a + w)), (1 + a + _half(w), _half(a + w), w),
    ),
    "watson_4f3": lambda a, w: ((_half(w), a + w), (1 + a + _half(w), w)),
}


# ---------------------------------------------------------------------------
# Rule-specific arguments, rewrites and checks.


def _rescaled(dirs: Sequence[int]) -> Callable[[IdentityInstance], ArgumentTriple]:
    """The arguments with each one of ``dirs`` divided by 1 - t."""

    def rhs_args(inst: IdentityInstance) -> ArgumentTriple:
        t = inst.scalar("t")
        xs = list(inst.args)
        for d in dirs:
            xs[d] = exact_div(xs[d], 1 - t)
        return ArgumentTriple(*xs)

    return rhs_args


def _translated(direction: int) -> Callable[[IdentityInstance], ArgumentTriple]:
    """The arguments with the one of ``direction`` moved by t."""

    def rhs_args(inst: IdentityInstance) -> ArgumentTriple:
        xs = list(inst.args)
        xs[direction] = xs[direction] + inst.scalar("t")
        return ArgumentTriple(*xs)

    return rhs_args


# T3a rests on Vandermonde at c = v + m2 + m3, which moves with the lattice
# point, so no declared lemma entry holds it: its right side is written out,
# and it puts the m2 + m3 part of the rewrite into bp and gp.
def _t3a_rhs(inst: IdentityInstance) -> ParameterSet:
    v, r = inst.indexed_value, inst.scalar("r")
    return _rewritten(inst, (v + r,), bp=(v,), gp=(v + r,))


def _lemma_rhs(
    name: str, params: Callable[[IdentityInstance], Tuple[Number, ...]]
) -> Callable[[IdentityInstance], ParameterSet]:
    """The right side of an x1-series rule resting on ``LEMMAS[name]`` at
    ``(*params(inst), v)``, v the indexed entry: the lemma at order m1
    joins ``c`` upstairs and ``h`` downstairs.  An a-entry v stays.  A
    c-entry's (v)_m1 cancels the lemma's last downstairs entry, v; with no
    downstairs entry left the one upstairs entry takes v's place, and
    otherwise v leaves ``c``."""
    ratio = LEMMAS[name]

    def rhs_params(inst: IdentityInstance) -> ParameterSet:
        num, den = ratio(*params(inst), inst.indexed_value)
        if inst.idx.family == "a":
            return _rewritten(inst, c=num, h=den)
        if len(den) == 1:
            return _rewritten(inst, num)
        return _rewritten(inst, (), c=num, h=den[:-1])

    return rhs_params


def _rescaled_x1(inst: IdentityInstance, den: Number) -> ArgumentTriple:
    """The arguments with x1 replaced by x1 (1+t)/den, or by 0 at x1 = 0."""
    x1 = inst.args.x1
    new_x1: Number = 0 if x1 == 0 else x1 * exact_div(1 + inst.scalar("t"), den)
    return ArgumentTriple(new_x1, inst.args.x2, inst.args.x3)


def _t9c_validation(inst: IdentityInstance) -> None:
    t = inst.scalar("t")
    _require(t != -1, "t = -1 puts the binomial prefactor at a pole")
    _require(
        t != 0 or inst.args.x1 == 0,
        "t = 0 needs x1 = 0: the rescaled first argument is x1 (1+t)/t",
    )


def _t10c_validation(inst: IdentityInstance) -> None:
    t = inst.scalar("t")
    x1 = inst.args.x1
    _require(x1 != 1, "x1 = 1 puts the outer geometric ratio at a pole")
    _require(t != -1, "t = -1 puts the binomial prefactor at a pole")
    _require(
        x1 == 0 or t + x1 != 0,
        "t + x1 = 0 needs x1 = 0: the rescaled first argument is x1 (1+t)/(t+x1)",
    )


# ---------------------------------------------------------------------------
# The rule table.

RULES: Dict[str, IdentityRule] = {}


def _register(rule: IdentityRule) -> None:
    RULES[rule.identity_id] = rule


# Single-entry shifts: the outer sum moves one entry up by k against t**k;
# the right side keeps the parameters and rescales by 1/(1-t) the arguments
# of the directions the family's Pochhammer order follows.
for _family in ("a", "b", "c"):
    _dirs = tuple(d for d, w in enumerate(FAMILY_COMBO[_family]) if w)
    _register(_rule(
        f"T1{_family}", None,
        f"shift one entry of family {_family!r} by a geometric outer sum; "
        f"arguments {tuple(d + 1 for d in _dirs)} rescale by 1/(1-t)",
        lambda inst: inst.scalar("t"), _family, extra_upper=_indexed_entry,
        rhs_prefactor=lambda inst: number_pow(1 - inst.scalar("t"), -inst.indexed_value),
        rhs_args=_rescaled(_dirs),
        extra_validation=lambda inst: _require(
            inst.scalar("t") != 1, "t = 1 puts the rewritten arguments at a pole"
        ),
    ))

# Argument translations: a full k-shift of every family coupled to one
# direction, weighted by t**k, translates that argument by t.
for _direction in range(3):
    _register(_rule(
        f"T2x{_direction + 1}", _direction,
        f"translate argument x{_direction + 1} by t through a full shift "
        "of its coupled families",
        lambda inst: inst.scalar("t"),
        rhs_args=_translated(_direction),
    ))

# The x1-series rules: the outer variable is x1 itself, and the left side
# raises the whole x1 group by k.  The sign and the indexed step go
# together: an alternating rule weights by (-x1)**k and raises the indexed
# entry with its group (step +1); the others weight by x1**k and hold it
# (step 0).
_register(_rule(
    "T3a", 0,
    "raise one a-entry by r: an r-weighted x1-series adds balancing entries to bp and gp",
    lambda inst: inst.args.x1, "a", ("r",), indexed_step=0,
    extra_upper=lambda inst: (inst.scalar("r"),),
    rhs_params=_t3a_rhs,
))
_register(_rule(
    "T3c", 0,
    "raise one c-entry by r through an r-weighted x1-series",
    lambda inst: inst.args.x1, "c", ("r",), indexed_step=0,
    extra_upper=lambda inst: (inst.scalar("r"),),
    rhs_params=_lemma_rhs("vandermonde_2f1", lambda inst: (-inst.scalar("r"),)),
))
_register(_rule(
    "T4a", 0,
    "alternating d-weighted x1-series turns one a-entry into new c and h entries",
    lambda inst: -inst.args.x1, "a", ("d",),
    extra_upper=lambda inst: (inst.scalar("d"),),
    rhs_params=_lemma_rhs("vandermonde_2f1", lambda inst: (inst.scalar("d"),)),
))
_register(_rule(
    "T4c", 0,
    "lower one c-entry by d through an alternating x1-series",
    lambda inst: -inst.args.x1, "c", ("d",),
    extra_upper=lambda inst: (inst.scalar("d"),),
    rhs_params=_lemma_rhs("vandermonde_2f1", lambda inst: (inst.scalar("d"),)),
))
_register(_rule(
    "T5c", 0,
    "split one c-entry into offsets by r and by d, with a balancing h-entry",
    lambda inst: inst.args.x1, "c", ("d", "r"), indexed_step=0,
    extra_upper=lambda inst: (inst.scalar("d"), inst.scalar("r")),
    extra_lower=lambda inst: (inst.scalar("d") + inst.scalar("r") + inst.indexed_value,),
    rhs_params=_lemma_rhs(
        "saalschutz_3f2", lambda inst: (-inst.scalar("r"), -inst.scalar("d"))
    ),
))
_register(_rule(
    "T6a", 0,
    "quadratic-weight x1-series turns one a-entry into two c and two h entries",
    lambda inst: -inst.args.x1, "a", ("d",), double_step=True,
    rhs_params=_lemma_rhs("nearly_poised_3f2", lambda inst: (inst.scalar("d"),)),
))
_register(_rule(
    "T6c", 0,
    "quadratic-weight x1-series replaces one c-entry by two c and one h entries",
    lambda inst: -inst.args.x1, "c", ("d",), double_step=True,
    rhs_params=_lemma_rhs("nearly_poised_3f2", lambda inst: (inst.scalar("d"),)),
))
_register(_rule(
    "T7c", 0,
    "halving rewrite of one c-entry into three c and two h entries",
    lambda inst: inst.args.x1, "c", ("r",), indexed_step=0,
    extra_upper=lambda inst: (inst.scalar("r"), -_half(inst.indexed_value)),
    extra_lower=lambda inst: (1 + inst.scalar("r") + _half(inst.indexed_value),),
    rhs_params=_lemma_rhs("twob_balanced_3f2", lambda inst: (inst.scalar("r"),)),
))
_register(_rule(
    "T8c", 0,
    "halving rewrite with quadratic weight: one c-entry becomes two c and one h entries",
    lambda inst: inst.args.x1, "c", ("d",), indexed_step=0, double_step=True,
    extra_upper=lambda inst: (-_half(inst.indexed_value),),
    extra_lower=lambda inst: (1 + inst.scalar("d") + _half(inst.indexed_value),),
    rhs_params=_lemma_rhs("watson_4f3", lambda inst: (inst.scalar("d"),)),
))

# Removing one c-entry: a binomial outer sum pushes -k into c in place of
# the indexed entry (step -1) and rescales x1.
_register(_rule(
    "T9c", None,
    "remove one c-entry by a binomial outer sum against a geometric rescale of x1",
    lambda inst: -inst.scalar("t"), "c", extra_upper=_indexed_entry, indexed_step=-1,
    lhs_args=lambda inst: _rescaled_x1(inst, inst.scalar("t")),
    rhs_prefactor=lambda inst: number_pow(1 + inst.scalar("t"), -inst.indexed_value),
    extra_validation=_t9c_validation,
))
_register(_rule(
    "T10c", None,
    "remove one c-entry by a binomial outer sum against a Moebius rescale of x1",
    lambda inst: exact_div(inst.scalar("t") + inst.args.x1, inst.args.x1 - 1),
    "c", extra_upper=_indexed_entry, indexed_step=-1,
    lhs_args=lambda inst: _rescaled_x1(inst, inst.scalar("t") + inst.args.x1),
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
    _, lower, d, _ = _weight_factors(rule.weight, inst)
    _require(
        d is None or not (is_integer_valued(d) and d < 0 and int(d) % 2 == 0),
        "scalar d must not be a negative even integer: the quadratic weight "
        "is only equivalent to its Pochhammer-quotient form away from those points",
    )
    for name, values in lower:
        if name is None:
            _require(
                not is_nonpositive_integer(values[0]),
                f"downstairs weight factor {format_number(values[0])} is a nonpositive "
                "integer, placing the outer weight at a pole",
            )
    return rule


def derived_policy(
    residual_tol: float,
    max_total_degree: int = TruncationPolicy.max_total_degree,
    stall_window: int = TruncationPolicy.stall_window,
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
) -> EvaluationResult:
    """Outer weighted sum of shifted evaluations, with joint diagnostics:
    converged and terminated_exactly only when the outer sum and every inner
    evaluation are.  ``bound`` is the weight's last nonzero k, or None."""
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
    return replace(
        outer,
        converged=outer.converged and all(r.converged for r in inner_results),
        terminated_exactly=outer.terminated_exactly
        and all(r.terminated_exactly for r in inner_results),
    )


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
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    outer_cap: int = DEFAULT_OUTER_CAP,
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
    outer_policy = replace(policy, max_total_degree=outer_cap)
    bound = weight_bound(rule.weight, inst)
    if bound is None:
        reason = weight_divergence(rule.weight, inst)
        if reason is not None:
            return CheckReport(
                identity_id=inst.identity_id, passed=False, reason=reason
            )

    try:
        lhs_diag = _lhs_value(rule, inst, policy, outer_policy, bound)
        prefactor = rule.rhs_prefactor(inst)
        rhs_diag = eval_f3(rule.rhs_params(inst), rule.rhs_args(inst), policy)
        rhs = prefactor * rhs_diag.value
    except (F3Error, ZeroDivisionError, OverflowError) as exc:
        return CheckReport(
            identity_id=inst.identity_id,
            passed=False,
            reason=f"{type(exc).__name__}: {exc}",
        )

    residual = _relative_residual(lhs_diag.value, rhs)
    passed = bool(
        lhs_diag.converged and rhs_diag.converged and residual <= residual_tol
    )
    return CheckReport(
        identity_id=inst.identity_id,
        passed=passed,
        lhs=lhs_diag.value,
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
