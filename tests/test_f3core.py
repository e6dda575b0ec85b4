"""Tests for the shell-ordered triple series engine and its 1-D pFq case."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from f3sum import (
    ArgumentTriple,
    BackendMismatchError,
    DENOMINATOR_FAMILIES,
    DenominatorPoleError,
    FAMILY_COMBO,
    InvalidInputError,
    NUMERATOR_FAMILIES,
    ParameterSet,
    TruncationPolicy,
    adaptive_sum,
    arguments_from_json,
    eval_f3,
    eval_pfq,
    exact_div,
    pochhammer,
)
from f3sum.f3core import (
    _AXIS_CUTS,
    _kernels,
    _row_spans,
    _walk,
)
from f3sum.numerics import pochhammer_product
from f3sum.params import combo_degree, families_along, order_excess, termination_bound


def lambda_coeff(ps, m1, m2, m3):
    """Series coefficient L(m1, m2, m3) from its definition: upstairs
    Pochhammer products over downstairs ones.  Raises DenominatorPoleError
    when a downstairs product vanishes, since the ratio is undefined there."""
    for m in (m1, m2, m3):
        if not isinstance(m, int) or m < 0:
            raise InvalidInputError(
                f"lattice indices must be non-negative ints, got {m!r}"
            )
    num = 1
    for name in NUMERATOR_FAMILIES:
        num = num * pochhammer_product(ps.family(name), combo_degree(name, m1, m2, m3))
    den = 1
    for name in DENOMINATOR_FAMILIES:
        den = den * pochhammer_product(ps.family(name), combo_degree(name, m1, m2, m3))
    if den == 0:
        raise DenominatorPoleError(
            f"downstairs Pochhammer product vanishes at ({m1}, {m2}, {m3})"
        )
    return exact_div(num, den)


def naive_f3(ps, args, degree):
    """Direct triple loop over the coefficient ratio, for cross-checking.

    Deliberately shares no code with the shell engine: every lattice point is
    priced from scratch through lambda_coeff.
    """
    x1, x2, x3 = args
    total = 0.0
    for m1 in range(degree + 1):
        for m2 in range(degree + 1 - m1):
            for m3 in range(degree + 1 - m1 - m2):
                coeff = lambda_coeff(ps, m1, m2, m3)
                total += (
                    coeff
                    * x1**m1
                    * x2**m2
                    * x3**m3
                    / (math.factorial(m1) * math.factorial(m2) * math.factorial(m3))
                )
    return total


X5 = Fraction(1, 10**5)
X6 = Fraction(1, 10**6)

DENSE_PS = ParameterSet(
    a=(1.1,), b=(0.7,), bp=(0.9,), bpp=(1.3,),
    c=(0.8,), cp=(1.7,), cpp=(0.6,),
    e=(1.9,), g=(1.2,), gp=(0.5,), gpp=(2.1,),
    h=(1.4,), hp=(0.95,), hpp=(1.6,),
)


class TestArgumentTriple:
    def test_iteration(self):
        t = ArgumentTriple(1, 2, 3)
        assert list(t) == [1, 2, 3]

    def test_backend_mix_rejected_at_eval(self):
        mixed = ArgumentTriple(0.5, Fraction(1, 2), 0)
        with pytest.raises(BackendMismatchError):
            eval_f3(ParameterSet(), mixed)

    def test_from_json(self):
        t = arguments_from_json(["1/2", 0, "-3/4"], backend="rational")
        assert (t.x1, t.x2, t.x3) == (Fraction(1, 2), 0, Fraction(-3, 4))

    def test_from_json_wrong_length(self):
        with pytest.raises(InvalidInputError):
            arguments_from_json([1, 2], backend="float64")


class TestLambdaCoeff:
    def test_single_upper_family(self):
        assert lambda_coeff(ParameterSet(a=(1,)), 1, 1, 0) == 2

    def test_ratio(self):
        ps = ParameterSet(a=(2,), e=(3,))
        assert lambda_coeff(ps, 1, 0, 1) == Fraction(1, 2)

    def test_empty_set_is_one(self):
        assert lambda_coeff(ParameterSet(), 3, 1, 2) == 1

    def test_pole(self):
        with pytest.raises(DenominatorPoleError):
            lambda_coeff(ParameterSet(h=(-1,)), 2, 0, 0)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInputError):
            lambda_coeff(ParameterSet(), -1, 0, 0)

    @pytest.mark.parametrize("family", sorted(FAMILY_COMBO))
    def test_each_family_enters_once(self, family):
        ps = ParameterSet(**{family: (Fraction(5, 7),)})
        value = lambda_coeff(ps, 1, 2, 3)
        expect = pochhammer(Fraction(5, 7), combo_degree(family, 1, 2, 3))
        if family in ("e", "g", "gp", "gpp", "h", "hp", "hpp"):
            expect = 1 / expect
        assert value == expect


class TestEvalF3:
    def test_geometric_in_total_degree(self):
        # a single 'a' entry makes the series (1 - x1 - x2 - x3)^(-a)
        res = eval_f3(ParameterSet(a=(1.0,)), ArgumentTriple(0.1, 0.1, 0.1))
        assert res.converged
        assert res.shells_used == 26
        assert res.value == pytest.approx(1 / 0.7, rel=1e-12)

    def test_binomial_power(self):
        res = eval_f3(ParameterSet(a=(2.5,)), ArgumentTriple(0.05, -0.03, 0.02))
        assert res.value == pytest.approx((1 - 0.05 + 0.03 - 0.02) ** -2.5, rel=1e-12)

    def test_empty_arguments(self):
        res = eval_f3(DENSE_PS, ArgumentTriple(0.0, 0.0, 0.0))
        assert res.terminated_exactly
        assert res.shells_used == 1
        assert res.value == 1.0

    def test_terminating_rational(self):
        ps = ParameterSet(c=(-2,))
        res = eval_f3(ps, ArgumentTriple(Fraction(1, 2), 0, 0))
        assert res.terminated_exactly
        assert res.converged
        assert res.shells_used == 3
        assert res.value == Fraction(1, 4)

    def test_dense_instance_matches_naive_loop(self):
        args = ArgumentTriple(0.03, -0.02, 0.025)
        res = eval_f3(DENSE_PS, args, TruncationPolicy(tol=1e-13, max_total_degree=34))
        assert res.converged
        oracle = naive_f3(DENSE_PS, (0.03, -0.02, 0.025), 34)
        assert res.value == pytest.approx(oracle, rel=1e-13)

    def test_terminating_matches_naive_loop(self):
        ps = ParameterSet(
            a=(Fraction(5, 7),), c=(-3,), cp=(-2,), cpp=(-1,),
            h=(Fraction(9, 7),), e=(Fraction(16, 7),),
        )
        args = ArgumentTriple(Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5))
        res = eval_f3(ps, args)
        assert res.terminated_exactly
        float_ps = ParameterSet(**{
            name: tuple(float(v) for v in ps.family(name))
            for name in ("a", "c", "cp", "cpp", "h", "e")
        })
        oracle = naive_f3(float_ps, (1 / 3, -0.25, 0.2), 6)
        assert float(res.value) == pytest.approx(oracle, rel=1e-13)

    def test_zero_argument_skips_pole(self):
        # hp only matters along direction 2; x2 = 0 keeps the lattice off it
        ps = ParameterSet(a=(1.0,), hp=(-1.0,))
        res = eval_f3(ps, ArgumentTriple(0.1, 0.0, 0.1))
        assert res.converged
        assert res.value == pytest.approx(1 / 0.8, rel=1e-12)

    def test_pole_masked_by_upper_termination(self):
        # the c cutoff at degree 2 keeps the walk off the zero of (-5)_k at
        # k = 6: terms 1 + 2/15 + 1/180
        ps = ParameterSet(h=(-5,), c=(-2,))
        res = eval_f3(ps, ArgumentTriple(Fraction(1, 3), 0, 0))
        assert res.terminated_exactly
        assert res.value == Fraction(41, 36)

    def test_pole_in_reach_of_upper_termination(self):
        # (-1)_2 = 0 sits inside the c cutoff at degree 2
        ps = ParameterSet(h=(-1,), c=(-2,))
        with pytest.raises(DenominatorPoleError):
            eval_f3(ps, ArgumentTriple(Fraction(1, 3), 0, 0))

    @pytest.mark.parametrize("family", DENOMINATOR_FAMILIES)
    def test_pole_raises(self, family):
        # 'a' follows every index, so its order covers each downstairs family
        ps = ParameterSet(a=(1.0,), **{family: (-1.0,)})
        message = (
            rf"^downstairs entry {family}\[1\] = -1\.0 vanishes at Pochhammer order 2$"
        )
        with pytest.raises(DenominatorPoleError, match=message):
            eval_f3(ps, ArgumentTriple(0.1, 0.1, 0.1))

    @pytest.mark.parametrize("family", DENOMINATOR_FAMILIES)
    def test_pole_raises_rational(self, family):
        # The int -1 sits next to a sevenths sibling, so the exact step scales
        # the two entries by different denominators before it tests for zero.
        ps = ParameterSet(a=(Fraction(3, 7),), **{family: (Fraction(5, 7), -1)})
        message = (
            f"downstairs entry {family}[2] = -1 vanishes at Pochhammer order 2"
        )
        args = ArgumentTriple(Fraction(1, 10), Fraction(1, 10), Fraction(1, 10))
        with pytest.raises(DenominatorPoleError) as info:
            eval_f3(ps, args)
        assert str(info.value) == message

    @pytest.mark.parametrize("family", ("h", "hp", "hpp"))
    def test_underflowing_denominator_is_invalid_input(self, family):
        # Two factors of 1e-200 multiply to 0.0 in float64, at the step along
        # m1, at the last point of a row along m2, or inside the row kernel
        # along m3.  No factor vanishes, so it is no pole; the rational
        # backend sums the same input.
        ps = ParameterSet(a=(1.0,), **{family: (1e-200, 1e-200)})
        message = (
            "the downstairs product underflows float64 at Pochhammer order 1; "
            "--backend rational sums this input"
        )
        with pytest.raises(InvalidInputError) as info:
            eval_f3(ps, ArgumentTriple(0.1, 0.1, 0.1))
        assert str(info.value) == message
        exact = ParameterSet(a=(1,), **{family: (Fraction(1, 10**200),) * 2})
        assert eval_f3(exact, ArgumentTriple(*[Fraction(1, 10)] * 3)).converged

    @pytest.mark.parametrize("ps, args, shells, exact", [
        # From shell 3 on every shell is below tol * |sum|, so the stall rule
        # alone stops at shell 5 and misses shells 6..10 of the support.
        (ParameterSet(c=(-10,)), (X6, 0, 0), 11, (1 - X6) ** 10),
        (ParameterSet(a=(-8,)), (X5, X5, X5), 9, (1 - 3 * X5) ** 8),
        # The per-direction bounds add up to 30, past the degree cap of 28,
        # and no cut moves with all three directions; shell 29 holds no
        # support point, so the support ends by the cap (at shell 20).
        (ParameterSet(b=(-10,), cpp=(-10,)), (X6, X6, X6), 21,
         (1 - 2 * X6) ** 10 * (1 - X6) ** 10),
        # The per-direction bounds again add up to 30, past the cap.  x3 = 0
        # is the cut m3 <= 0, so the cpp cut may not let m3 reach 20, and the
        # b cut, which moves with both live directions, ends the support at
        # shell 15.
        (ParameterSet(b=(-15,), cpp=(-20,)), (X6, X6, 0), 16, (1 - 2 * X6) ** 15),
    ], ids=["c-along-x1", "a-all-directions", "b-pair-and-cpp", "b-pair-x3-zero"])
    def test_finite_support_outlasts_the_stall_rule(self, ps, args, shells, exact):
        res = eval_f3(ps, ArgumentTriple(*args))
        assert res.terminated_exactly
        assert res.shells_used == shells
        assert res.value == exact

    def test_finite_support_float_is_summed_to_its_end(self):
        res = eval_f3(ParameterSet(c=(-10.0,)), ArgumentTriple(1e-6, 0.0, 0.0))
        assert res.terminated_exactly
        assert res.shells_used == 11
        assert res.value == pytest.approx((1 - 1e-6) ** 10, rel=1e-15)

    def test_finite_support_runs_to_its_end(self):
        # The support reaches shell 3; its shell magnitudes do not fall on
        # the way there, which must not stop the sum before shell 4 is empty.
        ps = ParameterSet(
            a=(Fraction(61, 21),), bp=(Fraction(18, 7),), c=(-1,), cp=(-1,),
            cpp=(-1,), gp=(Fraction(61, 21),), h=(Fraction(9, 7),),
        )
        res = eval_f3(ps, ArgumentTriple(Fraction(-1, 3), Fraction(-4, 9), Fraction(1, 3)))
        assert res.terminated_exactly
        assert res.shells_used == 4
        assert res.value == Fraction(-9080, 11907)

    def test_rising_shells_then_convergence(self):
        # 2F1(2.5, 2.5; 0.35; 0.6) along x1: the shell magnitudes grow for
        # the first shells, then decay geometrically.
        policy = TruncationPolicy(max_total_degree=120)
        ps = ParameterSet(c=(2.5, 2.5), h=(0.35,))
        res = eval_f3(ps, ArgumentTriple(0.6, 0.0, 0.0), policy)
        assert res.converged
        assert res.shells_used > 4
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            reference = mpmath.hyp2f1(2.5, 2.5, 0.35, 0.6)
        assert res.value == pytest.approx(float(reference), rel=1e-12)

    def test_divergent_reports_not_converged(self):
        res = eval_f3(ParameterSet(a=(1.0,)), ArgumentTriple(3.0, 3.0, 3.0))
        assert not res.converged

    @pytest.mark.parametrize(
        "ps, args",
        [
            (ParameterSet(c=(1.5,) * 3), ArgumentTriple(1e-6, 0, 0)),
            (ParameterSet(c=(Fraction(3, 2),) * 3), ArgumentTriple(Fraction(1, 10**6), 0, 0)),
            (ParameterSet(a=(1.5,), b=(1.5,), bpp=(1.2,)), ArgumentTriple(1e-5, 0, 0)),
            (
                ParameterSet(a=(Fraction(3, 2),), b=(Fraction(3, 2),), bpp=(Fraction(6, 5),)),
                ArgumentTriple(Fraction(1, 10**5), 0, 0),
            ),
        ],
        ids=["3F0-float", "3F0-rational", "a-b-bpp-float", "a-b-bpp-rational"],
    )
    def test_zero_radius_is_never_converged(self, ps, args):
        # Three upstairs entries and no downstairs one move with m1, so the
        # terms grow like (m1!)^2 x1^m1: the series diverges at every x1 != 0,
        # although its first shells fall below the stall threshold.
        res = eval_f3(ps, args)
        assert res.shells_used == 6
        assert not res.converged
        assert not res.terminated_exactly

    @pytest.mark.parametrize(
        "ps, args",
        [
            # one excess entry along x1: 2F1, radius 1
            (ParameterSet(c=(1.5, 1.5), h=(1.2,)), ArgumentTriple(0.1, 0, 0)),
            # the excess direction is cut off by c = -2
            (ParameterSet(c=(1.5, 1.5, -2.0)), ArgumentTriple(0.1, 0, 0)),
            # the excess direction has a zero argument
            (ParameterSet(c=(1.5,), cp=(1.5,) * 3), ArgumentTriple(0.1, 0, 0)),
        ],
        ids=["excess-one", "cut", "zero-argument"],
    )
    def test_zero_radius_needs_a_live_uncut_direction(self, ps, args):
        assert eval_f3(ps, args).converged

    @pytest.mark.parametrize("v, x", [(-3.0, 0.1), (-3, Fraction(1, 10))],
                             ids=["float", "rational"])
    def test_cap_bounds_the_shells_computed(self, v, x):
        # (-3)_4 = 0, so shell 4 is a pole: a cap of 3 must stop the walk
        # before it computes that shell, and a cap of 4 reaches it.
        ps = ParameterSet(h=(v,))
        res = eval_f3(ps, ArgumentTriple(x, 0, 0), TruncationPolicy(max_total_degree=3))
        assert res.shells_used == 4
        assert not res.converged
        with pytest.raises(DenominatorPoleError, match="at Pochhammer order 4$"):
            eval_f3(ps, ArgumentTriple(x, 0, 0), TruncationPolicy(max_total_degree=4))

    def test_tiny_tolerance_fails_closed(self):
        res = eval_f3(
            ParameterSet(a=(1.0,)),
            ArgumentTriple(0.1, 0.1, 0.1),
            TruncationPolicy(tol=1e-300),
        )
        assert not res.converged

    def test_float_backend_divides_in_float(self):
        # The float lives in a family the x1 steps never touch, so every
        # step sees only ints; the float64 backend still divides in float.
        res = eval_f3(ParameterSet(cp=(0.5,)), ArgumentTriple(1, 0, 0))
        assert isinstance(res.value, float)
        assert res.value == pytest.approx(math.e, rel=1e-14)

    def test_backend_mismatch_params_vs_args(self):
        with pytest.raises(BackendMismatchError):
            eval_f3(ParameterSet(a=(0.5,)), ArgumentTriple(Fraction(1, 2), 0, 0))


def _built(build, other, **fields):
    """``ParameterSet(**fields)``, built directly, or rebuilt by
    dataclasses.replace from a set holding ``other``, a scalar of another
    backend, whose stored classification must not carry over."""
    if build == "direct":
        return ParameterSet(**fields)
    return dataclasses.replace(ParameterSet(e=(other,)), e=(), **fields)


BUILDS = ("direct", "replaced")


class TestStoredBackend:
    @pytest.mark.parametrize("build", BUILDS)
    def test_fraction_params_reject_float_argument(self, build):
        ps = _built(build, 0.5, a=(Fraction(1, 3),), h=(2,), cp=(-1,))
        with pytest.raises(BackendMismatchError):
            eval_f3(ps, ArgumentTriple(0, 0.25, 0))

    @pytest.mark.parametrize("build", BUILDS)
    def test_float_params_reject_fraction_argument(self, build):
        ps = _built(build, Fraction(1, 2), a=(0.5,), h=(2,), cp=(-1,))
        with pytest.raises(BackendMismatchError):
            eval_f3(ps, ArgumentTriple(0, 0, Fraction(1, 4)))

    @pytest.mark.parametrize("build", BUILDS)
    def test_int_params_take_either_argument(self, build):
        ps = _built(build, 0.5, a=(2,), b=(-3,), h=(5,))
        floated = eval_f3(ps, ArgumentTriple(0.25, -0.5, 0.125))
        exact = eval_f3(ps, ArgumentTriple(Fraction(1, 4), Fraction(-1, 2), Fraction(1, 8)))
        assert isinstance(floated.value, float)
        assert isinstance(exact.value, Fraction)
        assert floated.value == pytest.approx(float(exact.value), rel=1e-14)


class TestEvalPfq:
    def test_exponential(self):
        res = eval_pfq([], [], 0.3)
        assert res.converged
        assert res.value == pytest.approx(math.exp(0.3), rel=1e-12)

    def test_terminating_exact(self):
        res = eval_pfq([-2, 1], [3], 1)
        assert res.terminated_exactly
        assert res.value == Fraction(1, 2)

    def test_zero_argument(self):
        res = eval_pfq([5.0], [2.0], 0.0)
        assert res.terminated_exactly
        assert res.value == 1.0

    def test_gauss_value(self):
        # 2F1(1, 1; 2; x) = -log(1 - x) / x
        res = eval_pfq([1.0, 1.0], [2.0], 0.2)
        assert res.value == pytest.approx(-math.log(0.8) / 0.2, rel=1e-12)

    def test_lower_pole(self):
        match = r"downstairs entry h\[1\] = -2\.0 vanishes at Pochhammer order 3"
        with pytest.raises(DenominatorPoleError, match=match):
            eval_pfq([1.0], [-2.0], 0.5)

    def test_pole_masked_by_upper_termination(self):
        # terms: 1 + 1/2 + 1/12; the (-4) zero sits past the (-2) cutoff
        res = eval_pfq([-2], [-4], 1)
        assert res.terminated_exactly
        assert res.value == Fraction(19, 12)


# Exact entries for the property test: ints, and Fractions of both signs
# that are never integers, so no downstairs factor can vanish.
_NON_INTEGER = st.builds(
    Fraction,
    st.integers(-20, 20).filter(lambda p: p % 6),
    st.just(6),
)
_UPSTAIRS = st.one_of(st.integers(-3, 4), _NON_INTEGER)
_DOWNSTAIRS = st.one_of(st.integers(1, 4), _NON_INTEGER)
# Tiny arguments let the stall rule fire inside the support.
_ARGUMENT = st.one_of(
    st.just(0),
    st.sampled_from((1, -1, Fraction(1, 10**6), Fraction(-1, 10**6))),
    st.builds(Fraction, st.integers(-3, 3), st.integers(2, 9)),
)


@st.composite
def finite_support_cases(draw):
    """A rational parameter set whose ``a`` cut makes the support finite,
    with mixed int/Fraction entries and arguments that may be zero."""
    fields = {}
    for name in FAMILY_COMBO:
        entries = _DOWNSTAIRS if name in DENOMINATOR_FAMILIES else _UPSTAIRS
        fields[name] = tuple(draw(st.lists(entries, max_size=2)))
    top = draw(st.integers(0, 6))
    fields["a"] = fields["a"] + (-top,)
    args = tuple(draw(_ARGUMENT) for _ in range(3))
    return ParameterSet(**fields), args, top


def naive_exact_f3(ps, args, top):
    """Every lattice point up to shell ``top`` priced from scratch."""
    total = 0
    for m1 in range(top + 1):
        for m2 in range(top + 1 - m1):
            for m3 in range(top + 1 - m1 - m2):
                power = Fraction(1)
                for x, m in zip(args, (m1, m2, m3)):
                    power *= Fraction(x) ** m / math.factorial(m)
                total += lambda_coeff(ps, m1, m2, m3) * power
    return total


@settings(max_examples=150, deadline=None)
@given(finite_support_cases())
def test_rational_finite_support_equals_naive_triple_loop(case):
    ps, args, top = case
    res = eval_f3(ps, ArgumentTriple(*args))
    assert res.terminated_exactly
    assert isinstance(res.value, (int, Fraction))
    assert res.value == naive_exact_f3(ps, args, top)


@st.composite
def terminating_pfq_cases(draw):
    """Rational pFq input cut off by an upstairs ``-top``, with mixed
    int/Fraction entries and, on some draws, a downstairs pole just past
    the last term."""
    top = draw(st.integers(0, 6))
    upper = draw(st.permutations(draw(st.lists(_UPSTAIRS, max_size=3)) + [-top]))
    lower = draw(st.lists(_DOWNSTAIRS, max_size=3))
    if draw(st.booleans()):
        # -m vanishes at Pochhammer order m + 1 > top
        lower = draw(st.permutations(lower + [-draw(st.integers(top, top + 3))]))
    return upper, lower, draw(_ARGUMENT), top


def naive_pfq(upper, lower, x, top):
    """Terms 0..top of the series, each priced from scratch."""
    total = 0
    for k in range(top + 1):
        num = Fraction(x) ** k
        for v in upper:
            num *= pochhammer(v, k)
        den = math.factorial(k)
        for v in lower:
            den *= pochhammer(v, k)
        total += num / den
    return total


@settings(max_examples=150, deadline=None)
@given(terminating_pfq_cases())
def test_rational_pfq_equals_naive_term_loop(case):
    upper, lower, x, top = case
    res = eval_pfq(upper, lower, x)
    assert res.terminated_exactly
    assert isinstance(res.value, (int, Fraction))
    assert res.value == naive_pfq(upper, lower, x, top)


@st.composite
def exact_walk_cases(draw):
    """A rational parameter set and arguments, either sign, some arguments
    zero, with one of three endings: no downstairs nonpositive integer; one
    at -n in a family whose order never exceeds that of an upstairs family
    cut at -t >= -n, so the walk never reaches it, though it may go on past
    shell n + 1 along other directions; or one at -n along a live direction,
    which the walk may reach within the first ``shells`` shells.  At most
    four families are filled, so that no downstairs entry covers for a
    factor missing from the shell denominator."""
    fields = dict.fromkeys(FAMILY_COMBO, ())
    for name in draw(st.sets(st.sampled_from(sorted(FAMILY_COMBO)), max_size=4)):
        entries = _DOWNSTAIRS if name in DENOMINATOR_FAMILIES else _UPSTAIRS
        fields[name] = tuple(draw(st.lists(entries, min_size=1, max_size=2)))
    args = [draw(_ARGUMENT) for _ in range(3)]
    ending = draw(st.sampled_from(("none", "cut", "pole")))
    if ending != "none":
        n = draw(st.integers(0, 4))
        if ending == "cut":
            cut = draw(st.sampled_from(NUMERATOR_FAMILIES))
            fields[cut] += (-draw(st.integers(0, n)),)
            pole = draw(st.sampled_from([
                name for name in DENOMINATOR_FAMILIES
                if all(w <= c for w, c in zip(FAMILY_COMBO[name], FAMILY_COMBO[cut]))
            ]))
        else:
            live = [d for d, x in enumerate(args) if x != 0] or [0]
            pole = draw(st.sampled_from(families_along(draw(st.sampled_from(live)))[1]))
        fields[pole] = draw(st.permutations(fields[pole] + (-n,)))
    return ParameterSet(**fields), args, draw(st.integers(1, 6))


def naive_shells(ps, args, shells):
    """Shells 0..shells of the series, every point priced from scratch in
    the walk's order; the walk's DenominatorPoleError text at the first
    point of the support whose downstairs product vanishes."""
    sums = []
    for s in range(shells + 1):
        total = Fraction(0)
        for m1 in range(s + 1):
            for m2 in range(s - m1 + 1):
                m = (m1, m2, s - m1 - m2)
                num = Fraction(1)
                for name in NUMERATOR_FAMILIES:
                    num *= pochhammer_product(ps.family(name), combo_degree(name, *m))
                for x, k in zip(args, m):
                    num *= Fraction(x) ** k / math.factorial(k)
                if num == 0:
                    continue  # outside the support
                den = 1
                for name in DENOMINATOR_FAMILIES:
                    den *= pochhammer_product(ps.family(name), combo_degree(name, *m))
                if den == 0:
                    # The walk steps along the last nonzero index, and the
                    # first vanishing factor in its plan order names the pole.
                    d = max(i for i in range(3) if m[i])
                    pred = tuple(k - (i == d) for i, k in enumerate(m))
                    for name in families_along(d)[1]:
                        order = combo_degree(name, *pred)
                        for j, v in enumerate(ps.family(name), start=1):
                            if v + order == 0:
                                return sums, (
                                    f"downstairs entry {name}[{j}] = {v!r} vanishes "
                                    f"at Pochhammer order {order + 1}"
                                )
                total += num / den
        sums.append(total)
    return sums, None


_EXACT_POLE_SET = dict(a=(Fraction(3, 2), Fraction(7, 10)), e=(Fraction(5, 4),))
_EXACT_POLE_ARGS = [Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)]


@settings(max_examples=200, deadline=None)
@given(exact_walk_cases())
# The exact twin of the float kernels' two-entry case: e[2] and hpp[1]
# vanish at the same point, and the first in plan order is named.
@example((ParameterSet(e=(Fraction(1, 2), -2), hpp=(-2,)),
          [Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)], 4))
# The exact twins of the float kernels' poles at order 2: hpp inside the row
# kernel along m3, hp at the row's last point (0, 2, 0), h at (2, 0, 0).
@example((ParameterSet(**_EXACT_POLE_SET, hpp=(Fraction(1, 2), -1)), _EXACT_POLE_ARGS, 4))
@example((ParameterSet(**_EXACT_POLE_SET, hp=(Fraction(1, 2), -1)), _EXACT_POLE_ARGS, 4))
@example((ParameterSet(**_EXACT_POLE_SET, h=(Fraction(1, 2), -1)), _EXACT_POLE_ARGS, 4))
# Zero factors of the part of a divisor that each shell cancels against
# K_s.  e[3] = 0, and the cut m3 <= 0 (cpp) or m2 + m3 <= 0 (bp) makes
# shell 3's first point a row's last one, reached along m2 at (0, 3, 0) or
# along m1 at (3, 0, 0).
@example((ParameterSet(e=(Fraction(1, 2), -2), cpp=(0,)), _EXACT_POLE_ARGS, 4))
@example((ParameterSet(e=(Fraction(1, 2), -2), bp=(0,)), _EXACT_POLE_ARGS, 4))
# g[2] = 0: row 0 of shell 2 steps (0, 0, 2) and (0, 1, 1) along m3, whose
# divisors hold no g, before (0, 2, 0) meets the pole along m2.
@example((ParameterSet(**_EXACT_POLE_SET, g=(Fraction(1, 2), -1)), _EXACT_POLE_ARGS, 4))
# g[3] = 0 and K_3 skips it, but the cut m1 + m2 <= 1 (b) leaves shell 3 and
# later no step along m2 or m1, so no pole is met and the walk goes on.
@example((ParameterSet(**_EXACT_POLE_SET, b=(-1,), g=(Fraction(1, 2), -2)), _EXACT_POLE_ARGS, 6))
def test_exact_walk_yields_the_naive_shell_sums(case):
    ps, args, shells = case
    expected, pole = naive_shells(ps, args, shells)
    walk = _walk(ps, ArgumentTriple(*args))[2]
    got = []
    try:
        for _ in range(shells + 1):
            got.append(next(walk))
    except StopIteration:
        pass
    except DenominatorPoleError as err:
        assert str(err) == pole
        pole = None
    assert pole is None
    assert got[0] == 1
    # Each later shell sum is the int N_s over D_s = D_{s-1} * K_s; the walk
    # ends at the first empty shell, and every shell after it sums to zero.
    sums, den = [], 1
    for n, k in got[1:]:
        den *= k
        sums.append(Fraction(n, den))
    assert [repr(v) for v in sums] == [repr(v) for v in expected[1:len(got)]]
    assert not any(expected[len(got):])


# Entries that never vanish as Pochhammer bases, in three denominators:
# positive ints, and sevenths and thirds of either sign that are not ints.
_MIXED_DENOMINATORS = st.one_of(
    st.integers(1, 4),
    st.builds(Fraction, st.integers(-20, 20).filter(lambda p: p % 7), st.just(7)),
    st.builds(Fraction, st.integers(-11, 11).filter(lambda p: p % 3), st.just(3)),
)


@st.composite
def long_exact_walk_cases(draw):
    """A non-terminating rational set, arguments with at most one zero, and
    8 to 14 shells.  Each filled family holds two entries of mixed
    denominators, and one of them moves along two live directions, so the
    walk reads its table along both and its downstairs entries enter K_s
    once."""
    args = [draw(st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 9)))
            for _ in range(3)]
    zero = draw(st.sampled_from((None, 0, 1, 2)))
    if zero is not None:
        args[zero] = 0
    live = [d for d, x in enumerate(args) if x]
    two_way = sorted(name for name, w in FAMILY_COMBO.items() if sum(w[d] for d in live) >= 2)
    names = draw(st.sets(st.sampled_from(sorted(FAMILY_COMBO)), max_size=5))
    names.add(draw(st.sampled_from(two_way)))
    fields = {name: tuple(draw(st.lists(_MIXED_DENOMINATORS, min_size=2, max_size=2)))
              for name in names}
    return ParameterSet(**fields), args, draw(st.integers(8, 14))


@settings(max_examples=80, deadline=None)
@given(long_exact_walk_cases())
# Along the live m2 every family is empty, so its steps read only ones;
# bpp moves along m1 and m3 both.
@example((ParameterSet(bpp=(Fraction(2, 3), Fraction(-5, 7)), c=(3, Fraction(2, 7)),
                       h=(Fraction(1, 3), Fraction(9, 7))),
          [Fraction(1, 3), Fraction(-2, 5), Fraction(1, 4)], 14))
def test_long_exact_walks_yield_the_naive_shell_sums(case):
    # exact_walk_cases stops at 6 shells; here every table grows to order 14.
    ps, args, shells = case
    expected, pole = naive_shells(ps, args, shells)
    assert pole is None
    walk = _walk(ps, ArgumentTriple(*args))[2]
    assert next(walk) == 1
    sums, den = [], 1
    for _ in range(shells):
        n, k = next(walk)
        den *= k
        sums.append(Fraction(n, den))
    assert [repr(v) for v in sums] == [repr(v) for v in expected[1:]]


# Entries that never vanish as Pochhammer bases: positive ints and
# non-integer Fractions, so no upstairs cut and no downstairs pole.
_NONVANISHING = st.one_of(st.integers(1, 4), _NON_INTEGER)
# Argument sizes 10^-1 .. 10^-12, either sign.
_SMALL_ARGUMENT = st.builds(
    Fraction, st.sampled_from((1, -1)), st.integers(1, 12).map(lambda k: 10**k)
)


@st.composite
def zero_radius_cases(draw):
    """An exact parameter set, arguments and a direction d whose argument is
    nonzero, that no upstairs cut touches, and along which g =
    order_excess - 1 is positive, so the terms grow like (m!)^g x_d^m."""
    d = draw(st.integers(0, 2))
    upper_d, _ = families_along(d)
    fields = {}
    for name in FAMILY_COMBO:
        upstairs_off_d = name not in DENOMINATOR_FAMILIES and name not in upper_d
        entries = _UPSTAIRS if upstairs_off_d else _NONVANISHING
        fields[name] = tuple(draw(st.lists(entries, max_size=2)))
    lengths = {name: len(v) for name, v in fields.items()}
    extra = max(0, 2 - order_excess(lengths, d)) + draw(st.integers(0, 2))
    grow = draw(st.sampled_from(upper_d))
    fields[grow] += tuple(draw(st.lists(_NONVANISHING, min_size=extra, max_size=extra)))
    args = [draw(st.one_of(st.just(0), _SMALL_ARGUMENT)) for _ in range(3)]
    args[d] = draw(_SMALL_ARGUMENT)
    return fields, args, d


@settings(max_examples=50, deadline=None)
@given(zero_radius_cases())
def test_zero_radius_is_never_converged_in_either_backend(case):
    fields, args, d = case
    lengths = {name: len(v) for name, v in fields.items()}
    assert order_excess(lengths, d) - 1 > 0
    exact = eval_f3(ParameterSet(**fields), ArgumentTriple(*args))
    floats = eval_f3(
        ParameterSet(**{name: tuple(map(float, v)) for name, v in fields.items()}),
        ArgumentTriple(*map(float, args)),
    )
    assert not exact.converged
    assert not floats.converged


# Negative non-integer sixths: no pole, and each flips the sign of K_s while
# p + (s-1)q < 0.
_NEGATIVE_NON_INTEGER = _NON_INTEGER.filter(lambda v: v < 0)


@st.composite
def negative_denominator_cases(draw):
    """A non-terminating rational set with a negative downstairs entry, so
    that some shell denominators D_s are negative, nonzero arguments of
    either sign, and a policy with a small cap."""
    fields = dict.fromkeys(FAMILY_COMBO, ())
    for name in draw(st.sets(st.sampled_from(sorted(FAMILY_COMBO)), max_size=3)):
        fields[name] = tuple(draw(st.lists(_NONVANISHING, min_size=1, max_size=2)))
    negative = draw(st.sampled_from(DENOMINATOR_FAMILIES))
    fields[negative] = draw(st.permutations(fields[negative] + (draw(_NEGATIVE_NON_INTEGER),)))
    args = [draw(st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 12)))
            for _ in range(3)]
    policy = TruncationPolicy(
        tol=draw(st.sampled_from((0.5, 2.0**-6, 1e-3))),
        max_total_degree=draw(st.integers(1, 7)),
        stall_window=draw(st.integers(1, 3)),
    )
    return ParameterSet(**fields), args, policy


@settings(max_examples=150, deadline=None)
@given(negative_denominator_cases())
def test_negative_shell_denominators_sum_as_the_naive_shells(case):
    # No bench workload has D_s < 0, so a stall test that takes D_s for
    # |D_s| shows only here.
    ps, args, policy = case
    expected, pole = naive_shells(ps, args, policy.max_total_degree)
    assert pole is None
    reference = adaptive_sum(iter([1] + expected[1:]), policy)
    lengths = {name: len(getattr(ps, name)) for name in FAMILY_COMBO}
    if any(order_excess(lengths, d) > 1 for d in range(3)):
        reference = dataclasses.replace(reference, converged=False)
    assert repr(eval_f3(ps, ArgumentTriple(*args), policy)) == repr(reference)


@pytest.mark.parametrize("sign", (1, -1))
def test_exact_argument_pair_is_reduced(sign):
    # Along m1 the upstairs a, c and downstairs e, h fold q_up = 7^2 and
    # q_down = 7^3 into x = 3/14: the unreduced pair (3 * 7^3, 14 * 7^2)
    # shares 7^3, which would enter every shell factor K_s.
    ps = ParameterSet(a=(Fraction(3, 7),), c=(Fraction(5, 7),), e=(Fraction(9, 7),),
                      h=(Fraction(2, 7), Fraction(11, 7)))
    x = Fraction(sign * 3, 14)
    num, den = _walk(ps, ArgumentTriple(x, 0, 0))[0][0]
    assert math.gcd(num, den) == 1
    assert Fraction(num, den) == x * 7**3 / 7**2
    assert (num, den) == (sign * 3, 2)


def test_shell_factors_take_each_live_downstairs_entry_once():
    # g moves along both live directions and sits in both plans, yet enters
    # K_s once (twice would give K_1 = 60); hpp moves only along the dead m3
    # and stays out (it would give K_1 = 90).  B = lcm(3, 5) = 15, and
    # K_s = 15 * s * (2 + 7*(s-1)).  No value shows either mistake.
    # The walk yields each exact shell as (N_s, K_s), after shell 0's int 1.
    ps = ParameterSet(g=(Fraction(2, 7),), hpp=(Fraction(3, 7),))
    walk = _walk(ps, ArgumentTriple(Fraction(1, 3), Fraction(1, 5), 0))[2]
    assert next(walk) == 1
    assert [next(walk)[1] for _ in range(3)] == [30, 270, 720]


@st.composite
def float_walk_cases(draw):
    """A float parameter set, arguments and a shell count.  At most six
    families are filled from positive floats; an upstairs family may get a
    nonpositive integer (a cut), a downstairs one a nonpositive integer the
    walk may reach (a pole), and an argument may be zero."""
    fields = dict.fromkeys(FAMILY_COMBO, ())
    entry = st.floats(0.3, 2.5)
    for name in draw(st.sets(st.sampled_from(sorted(FAMILY_COMBO)), max_size=6)):
        fields[name] = tuple(draw(st.lists(entry, min_size=1, max_size=2)))
    for name in draw(st.sets(st.sampled_from(NUMERATOR_FAMILIES), max_size=3)):
        fields[name] = draw(st.permutations(fields[name] + (-float(draw(st.integers(0, 5))),)))
    if draw(st.booleans()):
        pole = draw(st.sampled_from(DENOMINATOR_FAMILIES))
        fields[pole] = draw(st.permutations(fields[pole] + (-float(draw(st.integers(0, 5))),)))
    args = [draw(st.one_of(st.just(0.0), st.floats(-0.6, 0.6))) for _ in range(3)]
    return ParameterSet(**fields), args, draw(st.integers(1, 8))


def stepwise_float_shells(ps, args, shells):
    """Shells 0..shells of the float walk, one plain step per point: each
    entry's factor adds the dot product of its family's FAMILY_COMBO row
    with the predecessor, and every point of the triangle is tested against
    every cut.  Returns the shell sums and the
    DenominatorPoleError text of a reached pole, or None."""
    plans = []
    for d, x in enumerate(args):
        up, down = families_along(d)
        plans.append((
            [(FAMILY_COMBO[name], v) for name in up for v in getattr(ps, name)],
            [(FAMILY_COMBO[name], v, name, j)
             for name in down for j, v in enumerate(getattr(ps, name), start=1)],
            x,
        ))
    cuts = [_AXIS_CUTS[d] for d, x in enumerate(args) if x == 0]
    for name in NUMERATOR_FAMILIES:
        bound = termination_bound(getattr(ps, name))
        if bound is not None:
            cuts.append(FAMILY_COMBO[name] + (bound,))
    sums, prev = [1], [[1]]
    for s in range(1, shells + 1):
        cur, total = [], 0
        for m1 in range(s + 1):
            row = []
            cur.append(row)
            for m2 in range(s - m1 + 1):
                m = (m1, m2, s - m1 - m2)
                if any(c1 * m[0] + c2 * m[1] + c3 * m[2] > b for c1, c2, c3, b in cuts):
                    row.append(None)
                    continue
                d = 2 if m[2] else 1 if m[1] else 0
                p1, p2, p3 = pred = tuple(k - (i == d) for i, k in enumerate(m))
                up, down, x = plans[d]
                num = prev[pred[0]][pred[1]] * x
                for (w1, w2, w3), v in up:
                    num = num * (v + (w1 * p1 + w2 * p2 + w3 * p3))
                den = m[d]
                for (w1, w2, w3), v, name, j in down:
                    factor = v + (w1 * p1 + w2 * p2 + w3 * p3)
                    if factor == 0:
                        return sums, (
                            f"downstairs entry {name}[{j}] = {v!r} vanishes at "
                            f"Pochhammer order {w1 * p1 + w2 * p2 + w3 * p3 + 1}"
                        )
                    den = den * factor
                row.append(num / den)
                total = total + row[-1]
        if all(v is None for row in cur for v in row):
            break
        sums.append(total)
        prev = cur
    return sums, None


@settings(max_examples=300, deadline=None)
@given(float_walk_cases())
def test_float_walk_is_bit_identical_to_the_stepwise_walk(case):
    # The walk reads each entry's order from its slot in the four orders of
    # its direction, and each row's points from the cuts' span; neither may
    # move a bit of any float.
    ps, args, shells = case
    expected, pole = stepwise_float_shells(ps, args, shells)
    walk = _walk(ps, ArgumentTriple(*args))[2]
    got = []
    try:
        for _ in range(shells + 1):
            got.append(next(walk))
    except StopIteration:
        pass
    except DenominatorPoleError as err:
        assert str(err) == pole
        pole = None
    assert pole is None
    assert [repr(v) for v in got] == [repr(v) for v in expected]


@st.composite
def kernel_walk_cases(draw):
    """A float parameter set with every family drawn with up to four
    entries, arguments and a shell count.  Along each direction the
    upstairs or the downstairs families may all be emptied, so a plan may
    have no entry on either side.  An upstairs family may get a cut, and a
    downstairs family along a drawn direction a nonpositive integer the walk
    may reach: along m3 inside a row kernel, along m2 or m1 at a row's last
    point."""
    entry = st.floats(0.3, 2.5)
    fields = {name: tuple(draw(st.lists(entry, max_size=4))) for name in FAMILY_COMBO}
    for d in range(3):
        for names in families_along(d):
            if draw(st.integers(0, 3)) == 0:
                fields.update(dict.fromkeys(names, ()))
    if draw(st.booleans()):
        cut = draw(st.sampled_from(NUMERATOR_FAMILIES))
        fields[cut] = draw(st.permutations(fields[cut] + (-float(draw(st.integers(0, 5))),)))
    if draw(st.booleans()):
        pole = draw(st.sampled_from(families_along(draw(st.integers(0, 2)))[1]))
        fields[pole] = draw(st.permutations(fields[pole] + (-float(draw(st.integers(0, 3))),)))
    args = [draw(st.one_of(st.just(0.0), st.floats(-0.6, 0.6))) for _ in range(3)]
    return ParameterSet(**fields), args, draw(st.integers(1, 8))


# A pole at Pochhammer order 2 of a family moving along one direction only:
# hpp inside the row kernel along m3, hp at the last point (0, 2, 0) of a
# row, h at the last point (2, 0, 0) of the shell.
_POLE_SET = dict(a=(1.5, 0.7), e=(1.25,))


@settings(max_examples=300, deadline=None)
@given(kernel_walk_cases())
@example((ParameterSet(**_POLE_SET, hpp=(0.5, -1.0)), [0.3, 0.2, 0.1], 4))
@example((ParameterSet(**_POLE_SET, hp=(0.5, -1.0)), [0.3, 0.2, 0.1], 4))
@example((ParameterSet(**_POLE_SET, h=(0.5, -1.0)), [0.3, 0.2, 0.1], 4))
# A pole after an overflowed partial product: 1e200 * 1e200 is inf, and inf
# times the zero factor of h[3] at order 4 is nan, not zero.
@example((ParameterSet(h=(1e200, 1e200, -3.0)), [0.05, 0.05, 0.05], 5))
# e[2] and hpp[1] vanish at the same point (0, 0, 3), inside the row kernel;
# the first in plan order is named.
@example((ParameterSet(e=(0.5, -2.0), hpp=(-2.0,)), [0.3, 0.2, 0.1], 4))
def test_float_kernels_are_bit_identical_to_the_stepwise_walk(case):
    # The generated kernels multiply each point's factors in plan order and
    # test the downstairs product once for a pole; neither may move a bit or
    # change the pole's text.
    ps, args, shells = case
    expected, pole = stepwise_float_shells(ps, args, shells)
    walk = _walk(ps, ArgumentTriple(*args))[2]
    got = []
    try:
        for _ in range(shells + 1):
            got.append(next(walk))
    except StopIteration:
        pass
    except DenominatorPoleError as err:
        assert str(err) == pole
        pole = None
    assert pole is None
    assert [repr(v) for v in got] == [repr(v) for v in expected]


def test_kernels_are_compiled_once_per_entry_count_pair_and_backend():
    # a and e move along every direction, so each live plan holds one
    # upstairs and two downstairs entries, whatever their values.
    _kernels.cache_clear()
    args = ArgumentTriple(0.1, -0.2, 0.05)
    first = eval_f3(ParameterSet(a=(0.5,), e=(1.5, 2.5)), args)
    second = eval_f3(ParameterSet(a=(1.25,), e=(0.75, 2.0)), args)
    assert first.value != second.value
    info = _kernels.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # The one cached key is the count pair: asking for it compiles nothing.
    factory = _kernels(1, 2)
    assert _kernels.cache_info().misses == 1
    assert factory is _kernels(1, 2)
    # An exact walk of the same counts reads its factor tables and compiles
    # nothing: the cache is as the float calls left it.
    info = _kernels.cache_info()
    exact_args = ArgumentTriple(Fraction(1, 10), Fraction(-1, 5), Fraction(1, 20))
    first = eval_f3(ParameterSet(a=(Fraction(1, 2),), e=(Fraction(3, 2), Fraction(5, 2))),
                    exact_args)
    second = eval_f3(ParameterSet(a=(Fraction(5, 4),), e=(Fraction(3, 4), 2)), exact_args)
    assert first.value != second.value
    assert _kernels.cache_info() == info


# The axis cuts' rows are the rows of c, cp and cpp.
_CUT_ROWS = sorted(set(FAMILY_COMBO.values()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CUT_ROWS), st.integers(0, 6)), max_size=5))
def test_row_spans_are_the_points_every_cut_keeps(drawn):
    cuts = [row + (bound,) for row, bound in drawn]
    for s in range(13):
        spans = {m1: (lo, hi) for m1, lo, hi in _row_spans(cuts, s)}
        for m1 in range(s + 1):
            kept = [m2 for m2 in range(s - m1 + 1)
                    if all(c1 * m1 + c2 * m2 + c3 * (s - m1 - m2) <= b
                           for c1, c2, c3, b in cuts)]
            if kept:
                lo, hi = spans.pop(m1)
                assert kept == list(range(lo, hi + 1))
        assert not spans
