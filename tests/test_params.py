"""Tests for the fourteen-family parameter container, its index and JSON forms."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from f3sum import (
    ArgumentTriple,
    BackendMismatchError,
    DENOMINATOR_FAMILIES,
    F3Error,
    FAMILIES,
    FAMILY_COMBO,
    FLOAT64,
    FamilyIndex,
    InvalidIndexError,
    InvalidInputError,
    NUMERATOR_FAMILIES,
    ParameterSet,
    RATIONAL,
    TruncationPolicy,
    eval_f3,
    get_rule,
    parameter_set_from_json,
)
from f3sum.params import (
    combo_degree,
    entry_value,
    families_along,
    format_number,
    in_support,
    numerator_bounds,
    order_excess,
    parse_number,
    termination_bound,
)


class TestFamilyLayout:
    def test_family_order(self):
        assert FAMILIES == (
            "a", "b", "bp", "bpp", "c", "cp", "cpp",
            "e", "g", "gp", "gpp", "h", "hp", "hpp",
        )
        assert NUMERATOR_FAMILIES == FAMILIES[:7]
        assert DENOMINATOR_FAMILIES == FAMILIES[7:]

    def test_numerator_denominator_mirror(self):
        # each numerator family pairs with the denominator family sharing its
        # index-combination
        for num, den in zip(NUMERATOR_FAMILIES, DENOMINATOR_FAMILIES):
            assert FAMILY_COMBO[num] == FAMILY_COMBO[den]

    @pytest.mark.parametrize(
        "family,expect",
        [
            ("a", 6), ("e", 6),
            ("b", 3), ("g", 3),
            ("bp", 5), ("gp", 5),
            ("bpp", 4), ("gpp", 4),
            ("c", 1), ("h", 1),
            ("cp", 2), ("hp", 2),
            ("cpp", 3), ("hpp", 3),
        ],
    )
    def test_combo_degree(self, family, expect):
        assert combo_degree(family, 1, 2, 3) == expect

    def test_direction_groups(self):
        x1_group, x2_group, x3_group = (sum(families_along(d), ()) for d in range(3))
        assert x1_group == ("a", "b", "bpp", "c", "e", "g", "gpp", "h")
        assert x2_group == ("a", "b", "bp", "cp", "e", "g", "gp", "hp")
        assert x3_group == ("a", "bp", "bpp", "cpp", "e", "gp", "gpp", "hpp")
        for group in (x1_group, x2_group, x3_group):
            ups = [f for f in group if f in NUMERATOR_FAMILIES]
            downs = [f for f in group if f in DENOMINATOR_FAMILIES]
            assert len(ups) == len(downs) == 4
        assert families_along(0, 1) == (("a", "b"), ("e", "g"))
        assert families_along(1, 2) == (("a", "bp"), ("e", "gp"))
        assert families_along(0, 2) == (("a", "bpp"), ("e", "gpp"))
        for d, group in enumerate((x1_group, x2_group, x3_group)):
            weight = get_rule(f"T2x{d + 1}").weight
            assert weight.upper_families + weight.lower_families == group

    def test_order_excess(self):
        lengths = dict.fromkeys(FAMILIES, 0)
        lengths.update(a=1, bp=2, c=2, h=1, gp=1)
        assert order_excess(lengths, 0) == 1 + 2 - 1
        assert order_excess(lengths, 1) == 1 + 2 - 1
        assert order_excess(lengths, 2) == 1 + 2 - 1
        assert order_excess(lengths, 0, 1) == 1
        assert order_excess(lengths, 1, 2) == 1 + 2 - 1
        assert order_excess(lengths, 0, 1, 2) == 1


class TestParameterSet:
    def test_empty_is_valid(self):
        ps = ParameterSet()
        assert ps.representatives == ()

    def test_lists_become_tuples(self):
        ps = ParameterSet(a=[1, 2], h=[3])
        assert ps.a == (1, 2)
        assert ps.h == (3,)

    def test_backend_detection(self):
        # The first entry of the deciding kind, () for ints alone.
        assert ParameterSet(a=(2, 0.5), e=(0.25,)).representatives == (0.5,)
        assert ParameterSet(a=(1, Fraction(1, 2))).representatives == (Fraction(1, 2),)
        assert ParameterSet(a=(1,), e=(2,)).representatives == ()

    def test_backend_mix_rejected(self):
        with pytest.raises(BackendMismatchError):
            ParameterSet(a=(0.5,), e=(Fraction(1, 3),))

    def test_family_lookup(self):
        ps = ParameterSet(cp=(1, 2, 3))
        assert ps.family("cp") == (1, 2, 3)
        with pytest.raises(InvalidIndexError):
            ps.family("nope")

    def test_json_round_trip(self):
        ps = ParameterSet(a=(Fraction(3, 7),), c=(-2,), h=(Fraction(10, 7),))
        data = ps.to_json_dict()
        assert set(data) == {"a", "c", "h"}
        back = parameter_set_from_json(data, backend=RATIONAL)
        assert back == ps

    def test_json_round_trip_float(self):
        ps = ParameterSet(a=(1.25,), g=(0.5,))
        back = parameter_set_from_json(ps.to_json_dict(), backend=FLOAT64)
        assert back == ps

    def test_json_unknown_family(self):
        with pytest.raises(InvalidIndexError):
            parameter_set_from_json({"zz": [1]})


class TestParseFormat:
    def test_parse_fraction_string(self):
        assert parse_number("3/7", RATIONAL) == Fraction(3, 7)
        assert parse_number("-2", RATIONAL) == -2

    def test_parse_decimal_text_rational(self):
        # decimal text means the printed decimal, not the float64 bit pattern
        assert parse_number("0.1", RATIONAL) == Fraction(1, 10)

    def test_parse_float_in_rational_mode(self):
        assert parse_number(0.1, RATIONAL) == Fraction(1, 10)

    def test_parse_float_backend(self):
        assert parse_number("0.5", FLOAT64) == 0.5
        assert parse_number(3, FLOAT64) == 3.0

    @pytest.mark.parametrize("raw", ["3/x", "1/0", True, None])
    def test_parse_rejects_non_numbers(self, raw):
        with pytest.raises(InvalidInputError):
            parse_number(raw, RATIONAL)

    @pytest.mark.parametrize("raw, backend", [
        (float("inf"), RATIONAL),
        (float("nan"), RATIONAL),
        (float("nan"), FLOAT64),
        (float("inf"), FLOAT64),
        (10**400, FLOAT64),
        ("1e400", FLOAT64),
        (1, "decimal"),
        ("1/2", "float"),
    ])
    def test_parse_rejects_values_outside_the_backend(self, raw, backend):
        with pytest.raises(InvalidInputError) as info:
            parse_number(raw, backend)
        if backend not in (FLOAT64, RATIONAL):
            assert str(info.value) == f"unknown backend {backend!r}"

    def test_format_round_trip(self):
        assert format_number(Fraction(3, 7)) == "3/7"
        assert format_number(Fraction(4, 2)) == 2
        assert format_number(0.25) == 0.25


class TestFamilyIndex:
    def test_one_based(self):
        ps = ParameterSet(c=(10, 20))
        assert entry_value(ps, FamilyIndex("c", 1)) == 10
        assert entry_value(ps, FamilyIndex("c", 2)) == 20

    def test_out_of_range(self):
        ps = ParameterSet(c=(10,))
        with pytest.raises(InvalidIndexError):
            FamilyIndex("c", 2).check_against(ps)
        with pytest.raises(InvalidIndexError):
            FamilyIndex("c", 0).check_against(ps)

    def test_bool_index_is_refused(self):
        # isinstance(True, int) holds, so True used to act as index 1.
        with pytest.raises(InvalidIndexError, match="1-based"):
            FamilyIndex("a", True)

    def test_unknown_family(self):
        with pytest.raises(InvalidIndexError):
            FamilyIndex("q", 1).check_against(ParameterSet())


class TestSupport:
    def test_termination_bound(self):
        assert termination_bound([0.5, 3]) is None
        assert termination_bound([-2, 5]) == 2
        assert termination_bound([-2, -5]) == 2
        assert termination_bound([0]) == 0
        assert termination_bound([]) is None

    def test_in_support_box(self):
        bounds = {"c": 2}
        assert in_support(bounds, 2, 9, 9)
        assert not in_support(bounds, 3, 0, 0)

    def test_in_support_coupled(self):
        bounds = {"a": 3}
        assert in_support(bounds, 1, 1, 1)
        assert not in_support(bounds, 2, 1, 1)

    def test_numerator_bounds(self):
        ps = ParameterSet(a=(0.5,), c=(-2.0,))
        nb = numerator_bounds(ps)
        assert nb["c"] == 2
        assert nb["a"] is None


# Typed entries of each backend; ints are neutral and fit either.
_TYPED = {
    float: st.floats(-4, 4, allow_nan=False).filter(lambda v: not v.is_integer()),
    Fraction: st.fractions(-4, 4, max_denominator=9).filter(lambda v: v.denominator > 1),
}


@st.composite
def derived_cases(draw):
    """(parent set, replaced families) in one backend, ints mixed in."""
    kind = draw(st.sampled_from((float, Fraction)))
    entry = st.one_of(st.integers(-3, 4), _TYPED[kind])
    ps = ParameterSet(**{
        name: tuple(draw(st.lists(entry, max_size=2)))
        for name in draw(st.sets(st.sampled_from(FAMILIES), max_size=5))
    })
    names = draw(st.sets(st.sampled_from(FAMILIES), min_size=1, max_size=3))
    return ps, {name: tuple(draw(st.lists(entry, max_size=3))) for name in names}


def _backend_decision(ps):
    """Whether eval_f3 sums ``ps`` in float64 at int arguments, or the
    error it raises."""
    try:
        res = eval_f3(ps, ArgumentTriple(1, 1, 0), TruncationPolicy(max_total_degree=2))
    except F3Error as exc:
        return type(exc)
    return isinstance(res.value, float)


@settings(max_examples=300, deadline=None)
@given(derived_cases())
# The changed family drops the only typed entry: the derived set keeps it
# as its representative, a full rebuild holds ints alone.
@example((ParameterSet(c=(0.5,), h=(2,)), {"c": (-1,)}))
@example((ParameterSet(a=(Fraction(1, 3),)), {"a": ()}))
def test_derived_set_equals_the_full_rebuild(case):
    ps, families = case
    derived = ps.derived(**families)
    rebuilt = dataclasses.replace(ps, **families)
    assert derived == rebuilt
    assert hash(derived) == hash(rebuilt)
    assert repr(derived) == repr(rebuilt)
    if ps.representatives:
        assert derived.representatives == ps.representatives
    else:
        # The first typed new entry, of the kind a full rebuild keeps.
        assert list(map(type, derived.representatives)) == list(
            map(type, rebuilt.representatives)
        )
    if rebuilt.representatives:
        assert _backend_decision(derived) == _backend_decision(rebuilt)


@given(derived_cases(), st.data())
def test_derived_set_rejects_a_mixed_input(case, data):
    ps, families = case
    parent_kind = type(ps.representatives[0]) if ps.representatives else None
    other = Fraction if parent_kind is float else float
    name = data.draw(st.sampled_from(sorted(families)))
    families[name] += (data.draw(_TYPED[other]),)
    if parent_kind is None:
        # A set of ints takes either backend, as a full rebuild does, and
        # refuses a mix among the new entries, as a full rebuild does.
        try:
            rebuilt = dataclasses.replace(ps, **families)
        except BackendMismatchError:
            with pytest.raises(BackendMismatchError):
                ps.derived(**families)
        else:
            assert ps.derived(**families) == rebuilt
        return
    # The parent's representative meets an entry of the other kind.
    with pytest.raises(BackendMismatchError):
        ps.derived(**families)


def test_derived_set_keeps_the_parent_backend_without_typed_entries():
    # A full rebuild of ints alone sums exactly; the derived set keeps the
    # parent's float representative and sums in float64.  Sets from the CLI
    # or the suite never hold ints in float64, so only the API reaches this.
    ps = ParameterSet(c=(0.5,), h=(2,))
    derived = ps.derived(c=(-1,))
    rebuilt = dataclasses.replace(ps, c=(-1,))
    assert derived == rebuilt and derived.representatives == (0.5,)
    assert rebuilt.representatives == ()
    floated = eval_f3(derived, ArgumentTriple(1, 0, 0)).value
    exact = eval_f3(rebuilt, ArgumentTriple(1, 0, 0)).value
    assert type(floated) is float and floated == 0.5
    assert type(exact) is Fraction and exact == Fraction(1, 2)


def test_derived_set_refuses_an_unknown_family():
    with pytest.raises(InvalidIndexError, match="unknown parameter family 'z'"):
        ParameterSet(a=(1,)).derived(z=(1,))


def test_family_lookup_refuses_an_unknown_family():
    with pytest.raises(InvalidIndexError, match="unknown parameter family 'z'"):
        ParameterSet().family("z")
