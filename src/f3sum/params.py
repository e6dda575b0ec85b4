"""Parameter bookkeeping for the triple hypergeometric series.

The series coefficient is a ratio of Pochhammer products taken over fourteen
parameter families, seven upstairs and seven downstairs.  Each family is tied
to one of the seven nonempty combinations of the three summation indices:

    family (num/den)    Pochhammer order
    a   / e             m1 + m2 + m3
    b   / g             m1 + m2
    bp  / gp            m2 + m3
    bpp / gpp           m3 + m1
    c   / h             m1
    cp  / hp            m2
    cpp / hpp           m3

A :class:`ParameterSet` holds one tuple of scalars per family (any family may
be empty).  All entries must live in a single arithmetic backend; see
:mod:`f3sum.numerics`.  A set classifies its backend once, when it is built,
and keeps one representative entry of the kind that decided it, so a
computation over the set plus a few more scalars classifies only those.
Parameter sets are frozen, so the resummation rules share them freely and
build each rewritten set with one :meth:`ParameterSet.derived` call, which
copies the parent and classifies only the parent's representative and the
entries of the families it replaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidIndexError, InvalidInputError
from .numerics import (
    FLOAT64,
    RATIONAL,
    Number,
    classify_backend,
    is_nonpositive_integer,
)

FAMILIES: Tuple[str, ...] = (
    "a", "b", "bp", "bpp", "c", "cp", "cpp",
    "e", "g", "gp", "gpp", "h", "hp", "hpp",
)

NUMERATOR_FAMILIES: Tuple[str, ...] = FAMILIES[:7]
DENOMINATOR_FAMILIES: Tuple[str, ...] = FAMILIES[7:]

# Which summation indices (m1, m2, m3) each family's Pochhammer order sums.
FAMILY_COMBO: Dict[str, Tuple[int, int, int]] = {
    "a": (1, 1, 1), "e": (1, 1, 1),
    "b": (1, 1, 0), "g": (1, 1, 0),
    "bp": (0, 1, 1), "gp": (0, 1, 1),
    "bpp": (1, 0, 1), "gpp": (1, 0, 1),
    "c": (1, 0, 0), "h": (1, 0, 0),
    "cp": (0, 1, 0), "hp": (0, 1, 0),
    "cpp": (0, 0, 1), "hpp": (0, 0, 1),
}


@functools.lru_cache(maxsize=None)
def families_along(*dirs: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(upstairs, downstairs) families whose Pochhammer order grows with every
    summation index in ``dirs`` (0, 1, 2 for m1, m2, m3), in FAMILIES order."""

    def along(names: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(f for f in names if all(FAMILY_COMBO[f][d] for d in dirs))

    return along(NUMERATOR_FAMILIES), along(DENOMINATOR_FAMILIES)


def order_excess(lengths: Mapping[str, int], *dirs: int) -> int:
    """Upstairs minus downstairs entries in ``families_along(*dirs)``, given
    each family's entry count.  Along one uncut direction the terms grow like
    (m!)^(excess - 1), so there an excess above 1 means radius zero."""
    upper, lower = families_along(*dirs)
    return sum(lengths[f] for f in upper) - sum(lengths[f] for f in lower)


def combo_degree(family: str, m1: int, m2: int, m3: int) -> int:
    """Pochhammer order of a family at lattice point (m1, m2, m3)."""
    w = FAMILY_COMBO[family]
    return w[0] * m1 + w[1] * m2 + w[2] * m3


@dataclass(frozen=True)
class ParameterSet:
    """Immutable bundle of the fourteen parameter families."""

    a: Tuple[Number, ...] = ()
    b: Tuple[Number, ...] = ()
    bp: Tuple[Number, ...] = ()
    bpp: Tuple[Number, ...] = ()
    c: Tuple[Number, ...] = ()
    cp: Tuple[Number, ...] = ()
    cpp: Tuple[Number, ...] = ()
    e: Tuple[Number, ...] = ()
    g: Tuple[Number, ...] = ()
    gp: Tuple[Number, ...] = ()
    gpp: Tuple[Number, ...] = ()
    h: Tuple[Number, ...] = ()
    hp: Tuple[Number, ...] = ()
    hpp: Tuple[Number, ...] = ()
    # Set once, in __post_init__ or derived: the first float (float64) or
    # Fraction (rational) entry, () for ints alone.  The entries never mix
    # the two, so classify_backend over the representatives plus other
    # scalars decides what it would over all entries plus them.
    representatives: Tuple[Number, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries: List[Number] = []
        for name in FAMILIES:
            values = getattr(self, name)
            if not isinstance(values, tuple):
                values = tuple(values)
                object.__setattr__(self, name, values)
            entries.extend(values)
        object.__setattr__(self, "representatives", _representatives(entries))

    def derived(self, **families: Sequence[Number]) -> "ParameterSet":
        """This set with the named families replaced.

        The copy equals ``dataclasses.replace(self, **families)`` in ``==``,
        ``hash`` and ``repr``, but classifies its backend over this set's
        representatives plus the new entries only, still raising
        BackendMismatchError on a float/Fraction mix.  It keeps this set's
        representative (or, without one, takes the first typed new entry),
        so it keeps the parent's backend even where the new families drop
        the only typed entry and leave ints alone, which a full rebuild
        would classify as rational.
        """
        copy = object.__new__(type(self))
        state = copy.__dict__
        state.update(self.__dict__)
        entries: List[Number] = list(self.representatives)
        for name, values in families.items():
            if name not in FAMILY_COMBO:
                raise InvalidIndexError(f"unknown parameter family {name!r}")
            if not isinstance(values, tuple):
                values = tuple(values)
            state[name] = values
            entries.extend(values)
        # The parent's representative comes first, so it stays.
        state["representatives"] = _representatives(entries)
        return copy

    def family(self, name: str) -> Tuple[Number, ...]:
        if name not in FAMILY_COMBO:
            raise InvalidIndexError(f"unknown parameter family {name!r}")
        return getattr(self, name)

    def to_json_dict(self) -> Dict[str, list]:
        """Plain-JSON form; Fractions become 'p/q' strings, empty families are
        omitted."""
        out: Dict[str, list] = {}
        for name in FAMILIES:
            values = getattr(self, name)
            if values:
                out[name] = [format_number(v) for v in values]
        return out


def _representatives(entries: List[Number]) -> Tuple[Number, ...]:
    """The first entry of the kind that decides the backend of ``entries``
    (float for float64, Fraction for rational), or () for ints alone.
    Calls classify_backend once, so it raises BackendMismatchError on a
    float/Fraction mix."""
    kind = float if classify_backend(entries) == FLOAT64 else Fraction
    first = next((v for v in entries if isinstance(v, kind)), None)
    return () if first is None else (first,)


def format_number(x: Number):
    """JSON-safe rendering of one scalar: ints and floats pass through,
    Fractions become 'p/q' strings (or a bare int when q == 1)."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


def parse_number(raw, backend: str) -> Number:
    """Parse one scalar from JSON/CLI text into the requested backend.

    The rational backend reads JSON floats through their decimal spelling, so
    0.1 means exactly 1/10 rather than the nearest binary double.
    """
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise InvalidInputError(f"not a scalar: {raw!r}")
    try:
        if isinstance(raw, str):
            value: Number = Fraction(raw)
        elif isinstance(raw, float) and backend == RATIONAL:
            value = Fraction(repr(raw))
        else:
            value = raw
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse number {raw!r}") from exc
    if backend == RATIONAL:
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        return value
    if backend != FLOAT64:
        raise InvalidInputError(f"unknown backend {backend!r}")
    try:
        value = float(value)
    except OverflowError as exc:
        raise InvalidInputError("number outside the float64 range") from exc
    if not math.isfinite(value):
        raise InvalidInputError(f"not a finite number: {raw!r}")
    return value


def parameter_set_from_json(data: Mapping[str, Sequence], backend: str = FLOAT64) -> ParameterSet:
    if not isinstance(data, Mapping):
        raise InvalidInputError(
            f"params must be an object of family name -> list of scalars, got {data!r}"
        )
    fields: Dict[str, Tuple[Number, ...]] = {}
    for name, values in data.items():
        if name not in FAMILIES:
            raise InvalidIndexError(f"unknown parameter family {name!r}")
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise InvalidIndexError(f"family {name!r} must be a list of scalars")
        fields[name] = tuple(parse_number(v, backend) for v in values)
    return ParameterSet(**fields)


@dataclass(frozen=True)
class FamilyIndex:
    """1-based reference to one entry of one family."""

    family: str
    i: int = 1

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidIndexError(f"unknown parameter family {self.family!r}")
        # A bool is an int to isinstance, and True would act as index 1.
        if isinstance(self.i, bool) or not isinstance(self.i, int) or self.i < 1:
            raise InvalidIndexError(f"family index is 1-based, got {self.i!r}")

    def check_against(self, ps: ParameterSet) -> None:
        if self.i > len(ps.family(self.family)):
            raise InvalidIndexError(
                f"index {self.i} out of range for family {self.family!r} "
                f"of length {len(ps.family(self.family))}"
            )


def entry_value(ps: ParameterSet, idx: FamilyIndex) -> Number:
    idx.check_against(ps)
    return ps.family(idx.family)[idx.i - 1]


def termination_bound(values: Sequence[Number]) -> Optional[int]:
    """Largest Pochhammer order with all factors nonzero, i.e. min(-v) over
    nonpositive-integer entries v.  None when the family never terminates."""
    bound: Optional[int] = None
    for v in values:
        if is_nonpositive_integer(v):
            u = -int(v)
            bound = u if bound is None else min(bound, u)
    return bound


def numerator_bounds(ps: ParameterSet) -> Dict[str, Optional[int]]:
    """Termination bound per upstairs family (None where absent)."""
    return {name: termination_bound(ps.family(name)) for name in NUMERATOR_FAMILIES}


def in_support(bounds: Mapping[str, Optional[int]], m1: int, m2: int, m3: int) -> bool:
    """Is (m1, m2, m3) inside the region of nonzero series terms?

    A nonpositive-integer upstairs entry v kills every term whose Pochhammer
    order exceeds -v, so the support is the lower set cut out by the family
    bounds.
    """
    for name, bound in bounds.items():
        if bound is not None and combo_degree(name, m1, m2, m3) > bound:
            return False
    return True

