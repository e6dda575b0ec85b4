"""Classical triple hypergeometric functions as parameter-set embeddings.

Each classical three-variable series is a choice of the families of
:mod:`f3sum.params` that carry its parameters, so the general engine
evaluates it directly.  ``LAYOUTS`` has one row per function (see
:class:`Layout`); adding a function is one row plus an independent oracle of
its series definition in the tests.  ``special_params`` builds the parameter
set of a row, and ``check_special_case`` runs it through the row's rule,
confirming that the embedding transforms as the classical function does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import InvalidInputError, InvalidInstanceError
from .f3core import ArgumentTriple
from .identities import (
    DEFAULT_OUTER_CAP,
    DEFAULT_RESIDUAL_TOL,
    CheckReport,
    IdentityInstance,
    check_identity,
    get_rule,
)
from .numerics import Number, TruncationPolicy
from .params import FamilyIndex, ParameterSet


@dataclass(frozen=True)
class Layout:
    """One classical function's place in the general series.

    families  the family each classical parameter fills, in classical
              argument order,
    rule      the rule that checks the whole function; a rule with an
              indexed family acts on entry 1 of that family,
    draws     the rational suite's draw for each parameter, a code of the
              ``suite._DRAWS`` table that the rule recipes share: ``-n``
              (the instance order), ``-m`` (a fresh order), ``up`` (a
              positive seventh) or ``down`` (1 + a positive seventh).
    """

    families: Tuple[str, ...]
    rule: str
    draws: Tuple[str, ...]


# Each comment gives the coefficient of x1^m1 x2^m2 x3^m3 / (m1! m2! m3!),
# with the parameters named in classical argument order.
LAYOUTS: Dict[str, Layout] = {
    # Lauricella F_A(a, b1, b2, b3; c1, c2, c3):
    # (a)_(m1+m2+m3) (b1)_m1 (b2)_m2 (b3)_m3 / ((c1)_m1 (c2)_m2 (c3)_m3)
    "fa3": Layout(("a", "c", "cp", "cpp", "h", "hp", "hpp"), "T1a",
                  ("-n", "up", "up", "up", "down", "down", "down")),
    # Lauricella F_D(a, b1, b2, b3; c):
    # (a)_(m1+m2+m3) (b1)_m1 (b2)_m2 (b3)_m3 / (c)_(m1+m2+m3)
    "fd3": Layout(("a", "c", "cp", "cpp", "e"), "T1a",
                  ("-n", "up", "up", "up", "down")),
    # Srivastava H_A(a, b1, b2; c1, c2):
    # (a)_(m1+m3) (b1)_(m1+m2) (b2)_(m2+m3) / ((c1)_m1 (c2)_(m2+m3));
    # T2x1's weight collapses to the classical 2F1-style ratio here.
    "ha": Layout(("bpp", "b", "bp", "h", "gp"), "T2x1",
                 ("-n", "-m", "up", "down", "down")),
}

SPECIAL_KINDS: Tuple[str, ...] = tuple(LAYOUTS)


def get_layout(kind: str) -> Layout:
    try:
        return LAYOUTS[kind]
    except KeyError:
        raise InvalidInstanceError(
            f"unknown special case {kind!r}; expected one of {SPECIAL_KINDS}"
        ) from None


def special_params(kind: str, *values: Number) -> ParameterSet:
    """Parameter set whose series is the classical function ``kind`` with
    these parameters, given in its classical argument order."""
    families = get_layout(kind).families
    if len(values) != len(families):
        raise InvalidInputError(
            f"special case {kind!r} takes {len(families)} parameters, got {len(values)}"
        )
    fields: Dict[str, Tuple[Number, ...]] = {}
    for family, value in zip(families, values):
        fields[family] = fields.get(family, ()) + (value,)
    return ParameterSet(**fields)


def special_case_instance(
    kind: str, ps: ParameterSet, args: ArgumentTriple, t: Number
) -> IdentityInstance:
    """Wrap an embedded classical function as an instance of its layout's rule."""
    rule = get_rule(get_layout(kind).rule)
    idx = None if rule.indexed_family is None else FamilyIndex(rule.indexed_family, 1)
    return IdentityInstance(
        identity_id=rule.identity_id, ps=ps, args=args, idx=idx, scalars={"t": t}
    )


def check_special_case(
    kind: str,
    ps: ParameterSet,
    args: ArgumentTriple,
    t: Number,
    policy: Optional[TruncationPolicy] = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    outer_cap: int = DEFAULT_OUTER_CAP,
) -> CheckReport:
    inst = special_case_instance(kind, ps, args, t)
    return check_identity(inst, policy=policy, residual_tol=residual_tol, outer_cap=outer_cap)
