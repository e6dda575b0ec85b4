"""Tests for backend classification, exact arithmetic and adaptive summation."""

import math
from fractions import Fraction
from itertools import count, repeat

import pytest
from hypothesis import example, given, settings, strategies as st

from f3sum import (
    BackendMismatchError,
    ComplexPowerError,
    EvaluationResult,
    F3Error,
    FLOAT64,
    InexactPowerError,
    InvalidInputError,
    RATIONAL,
    TruncationPolicy,
    adaptive_sum,
    classify_backend,
    exact_div,
    is_nonpositive_integer,
    number_pow,
    pochhammer,
)
from f3sum.numerics import is_integer_valued, magnitude_as_float, pochhammer_product
from f3sum.params import parse_number


class TestClassifyBackend:
    def test_ints_alone_are_exact(self):
        assert classify_backend([5, -3, 0]) == RATIONAL

    def test_float(self):
        assert classify_backend([0.5, 2]) == FLOAT64

    def test_fraction(self):
        assert classify_backend([Fraction(1, 3), 7]) == RATIONAL

    def test_mix_rejected(self):
        with pytest.raises(BackendMismatchError):
            classify_backend([0.5, Fraction(1, 3)])

    def test_bool_rejected(self):
        with pytest.raises(BackendMismatchError):
            classify_backend([True])

    def test_unknown_type_rejected(self):
        with pytest.raises(BackendMismatchError):
            classify_backend(["1/2"])
        with pytest.raises(BackendMismatchError):
            classify_backend([1 + 2j])


class TestCoerceNumber:
    """Bringing a value into a backend, which ``params.parse_number`` does."""

    def test_int_passes_through(self):
        assert type(parse_number(3, RATIONAL)) is int
        assert parse_number(3, RATIONAL) == 3
        assert type(parse_number(3, FLOAT64)) is float
        assert parse_number(3, FLOAT64) == 3

    def test_fraction_to_float_allowed(self):
        assert parse_number("1/2", FLOAT64) == 0.5

    def test_matching_backend(self):
        assert parse_number(0.25, FLOAT64) == 0.25
        assert parse_number("2/7", RATIONAL) == Fraction(2, 7)


class TestIntegerPredicates:
    @pytest.mark.parametrize("v", [0, -1, -7, Fraction(-4, 1), -3.0, 0.0])
    def test_nonpositive_integers(self, v):
        assert is_nonpositive_integer(v)

    @pytest.mark.parametrize("v", [1, 0.5, Fraction(-1, 2), -2.5, 2])
    def test_not_nonpositive_integers(self, v):
        assert not is_nonpositive_integer(v)

    def test_integer_valued(self):
        assert is_integer_valued(4)
        assert is_integer_valued(4.0)
        assert is_integer_valued(Fraction(8, 2))
        assert not is_integer_valued(4.5)
        assert not is_integer_valued(Fraction(1, 3))


class TestExactDiv:
    def test_int_over_int_is_exact(self):
        q = exact_div(1, 3)
        assert isinstance(q, Fraction)
        assert q == Fraction(1, 3)

    def test_float_stays_float(self):
        assert exact_div(1.0, 3) == pytest.approx(1 / 3)
        assert isinstance(exact_div(1, 3.0), float)

    def test_fraction_over_int(self):
        assert exact_div(Fraction(1, 2), 4) == Fraction(1, 8)

    @pytest.mark.parametrize("num, den", [(6, 3), (-6, 3), (0, 5), (7, -2), (1, 3)])
    def test_int_over_int_is_a_fraction_even_when_integral(self, num, den):
        q = exact_div(num, den)
        assert type(q) is Fraction
        assert q == Fraction(num, den)

    @pytest.mark.parametrize(
        "num, den",
        [
            (Fraction(3, 7), 2), (Fraction(-3, 7), -6), (Fraction(4, 2), 2),
            (2, Fraction(3, 7)), (-4, Fraction(-2, 9)), (0, Fraction(1, 3)),
            (Fraction(3, 7), Fraction(9, 14)), (Fraction(5), Fraction(5)),
            (1.5, 2), (3, 0.25), (1.5, 0.5), (-0.1, 3),
        ],
    )
    def test_matches_division_of_fraction_copies(self, num, den):
        # The result the function gave when it divided Fraction copies of
        # two exact operands, and divided floats with /.
        if isinstance(num, float) or isinstance(den, float):
            expected = num / den
        else:
            expected = Fraction(num) / Fraction(den)
        assert repr(exact_div(num, den)) == repr(expected)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(1, 0)

    @pytest.mark.parametrize(
        "num, den",
        [(0, 0), (Fraction(1, 2), 0), (1, Fraction(0)), (1.0, 0), (1, 0.0), (0.5, 0.0)],
    )
    def test_zero_denominator_in_either_backend(self, num, den):
        with pytest.raises(ZeroDivisionError):
            exact_div(num, den)


class TestNumberPow:
    def test_int_base_int_exp(self):
        assert number_pow(2, 10) == 1024
        assert number_pow(2, -2) == Fraction(1, 4)

    def test_fraction_base_int_exp(self):
        assert number_pow(Fraction(2, 3), 3) == Fraction(8, 27)
        assert number_pow(Fraction(2, 3), -1) == Fraction(3, 2)

    def test_float_base(self):
        assert number_pow(1.5, 2) == 2.25
        assert number_pow(4.0, 0.5) == 2.0

    def test_negative_float_base_fractional_exp(self):
        with pytest.raises(ComplexPowerError):
            number_pow(-2.0, 0.5)

    def test_rational_base_fractional_exp(self):
        with pytest.raises(InexactPowerError):
            number_pow(Fraction(1, 2), 0.5)

    def test_zero_to_negative(self):
        with pytest.raises(ZeroDivisionError):
            number_pow(0, -1)


def test_typed_domain_errors_stay_value_errors():
    # Callers that caught the old ValueError keep working.
    for error in (ComplexPowerError, InvalidInputError):
        assert issubclass(error, F3Error) and issubclass(error, ValueError)


class TestPochhammer:
    def test_known_values(self):
        assert pochhammer(3, 4) == 360
        assert pochhammer(0.5, 2) == 0.75
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_empty_product(self):
        assert pochhammer(7, 0) == 1
        assert pochhammer(0.0, 0) == 1

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInputError):
            pochhammer(1, -1)
        with pytest.raises(InvalidInputError):
            pochhammer(1, 1.5)

    @pytest.mark.parametrize("x", [Fraction(1, 2), 3, 0.5])
    def test_bool_order_rejected(self, x):
        # True is an int to isinstance, and would act as order 1.
        with pytest.raises(InvalidInputError, match="got True"):
            pochhammer(x, True)
        with pytest.raises(InvalidInputError, match="got False"):
            pochhammer(x, False)

    @given(x=st.fractions(min_value=-12, max_value=12, max_denominator=60))
    @example(x=Fraction(-3))  # terminating: zero from k = 4 on
    @example(x=Fraction(5))  # integral: still a Fraction
    @example(x=Fraction(-7, 3))
    @example(x=Fraction(0))
    def test_fraction_matches_the_stepwise_product(self, x):
        # The int product over q**k reduces to the stepwise Fraction product:
        # the same value, type and repr at every order.
        stepwise = 1
        for k in range(21):
            got = pochhammer(x, k)
            assert got == stepwise
            assert type(got) is type(stepwise)
            assert repr(got) == repr(stepwise)
            stepwise = stepwise * (x + k)

    def test_terminating(self):
        assert pochhammer(-3, 4) == 0
        assert pochhammer(-3, 3) == -6

    @given(
        x=st.fractions(min_value=-10, max_value=10, max_denominator=50),
        k=st.integers(min_value=0, max_value=12),
    )
    def test_recurrence(self, x, k):
        assert pochhammer(x, k + 1) == pochhammer(x, k) * (x + k)

    def test_product(self):
        assert pochhammer_product([2, 3], 2) == pochhammer(2, 2) * pochhammer(3, 2)
        assert pochhammer_product([], 5) == 1


class TestTruncationPolicy:
    def test_defaults(self):
        p = TruncationPolicy()
        assert p.tol == 1e-12
        assert p.max_total_degree == 28
        assert p.stall_window == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-9},
            {"max_total_degree": 0},
            {"max_total_degree": -5},
            {"stall_window": 0},
            {"tol": float("inf")},
            {"tol": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            TruncationPolicy(**kwargs)

    @pytest.mark.parametrize("field", ["max_total_degree", "stall_window"])
    @pytest.mark.parametrize("value", [3.5, 3.0, True, "3"])
    def test_non_int_counts_rejected(self, field, value):
        # A float cap would reach islice as a bare ValueError, not an
        # F3Error, and a float window would act rounded up.
        with pytest.raises(InvalidInputError, match=f"{field} must be an int"):
            TruncationPolicy(**{field: value})

    def test_frozen(self):
        p = TruncationPolicy()
        with pytest.raises(AttributeError):
            p.tol = 1e-6


class TestEvaluationResult:
    def test_terminated_implies_converged(self):
        with pytest.raises(ValueError):
            EvaluationResult(
                value=1.0,
                shells_used=2,
                last_shell_magnitude=0.0,
                converged=False,
                terminated_exactly=True,
            )

    def test_plain_construction(self):
        r = EvaluationResult(
            value=Fraction(1, 4),
            shells_used=3,
            last_shell_magnitude=0.25,
            converged=True,
            terminated_exactly=True,
        )
        assert r.value == Fraction(1, 4)


class TestAdaptiveSum:
    def test_geometric_needs_wide_cap(self):
        # ratio 0.5 needs roughly 41 terms for 1e-12 relative accuracy
        policy = TruncationPolicy(tol=1e-12, max_total_degree=80, stall_window=3)
        res = adaptive_sum((0.5**k for k in count()), policy)
        assert res.converged
        assert not res.terminated_exactly
        assert res.value == pytest.approx(2.0, rel=1e-11)

    def test_geometric_fails_closed_at_default_cap(self):
        res = adaptive_sum((0.5**k for k in count()), TruncationPolicy())
        assert not res.converged

    def test_fast_series_at_default_policy(self):
        # sum_k (2)_k / k! * 0.2^k = (1 - 0.2)^(-2)
        res = adaptive_sum(
            (pochhammer(2, k) * 0.2**k / pochhammer(1, k) for k in count()),
            TruncationPolicy(),
        )
        assert res.converged
        assert res.value == pytest.approx(1.5625, rel=1e-12)

    def test_exact_bound_sums_fully(self):
        res = adaptive_sum(
            (Fraction(1, 2) ** k for k in count()), TruncationPolicy(), exact_bound=4
        )
        assert res.terminated_exactly
        assert res.converged
        assert res.value == Fraction(31, 16)
        assert res.shells_used == 5

    def test_exact_bound_reports_the_last_term_magnitude(self):
        # Under an exact bound only the last term's magnitude is reported.
        terms = iter([Fraction(1), Fraction(-3, 2), Fraction(-1, 4), Fraction(5)])
        res = adaptive_sum(terms, TruncationPolicy(), exact_bound=2)
        assert res.value == Fraction(-3, 4)
        assert res.shells_used == 3
        assert res.last_shell_magnitude == 0.25
        assert res.terminated_exactly

    def test_exact_bound_above_cap_falls_back(self):
        policy = TruncationPolicy(tol=1e-12, max_total_degree=10, stall_window=3)
        res = adaptive_sum((0.0 if k else 1.0 for k in count()), policy, exact_bound=50)
        assert res.converged
        assert not res.terminated_exactly

    def test_ended_iterator_ends_the_sum_exactly(self):
        # An iterator that ends means no later term is nonzero: the sum is
        # complete, and the diagnostics describe the last term.
        terms = iter([Fraction(1), Fraction(-3, 2), Fraction(1, 4)])
        res = adaptive_sum(terms, TruncationPolicy())
        assert res.value == Fraction(-1, 4)
        assert res.shells_used == 3
        assert res.last_shell_magnitude == 0.25
        assert res.converged
        assert res.terminated_exactly

    @pytest.mark.parametrize("cap, exact_bound, drawn", [
        (5, None, 6), (5, 3, 4), (5, 9, 6),
    ], ids=["cap", "exact-bound", "exact-bound-above-cap"])
    def test_draws_no_term_past_the_limit(self, cap, exact_bound, drawn):
        # Terms 0..limit are drawn and no more: drawing one past the limit
        # would compute a shell the cap excludes.
        def terms():
            yield from repeat(1.0, drawn)
            raise AssertionError(f"term {drawn} drawn past the limit")

        res = adaptive_sum(terms(), TruncationPolicy(max_total_degree=cap), exact_bound)
        assert res.shells_used == drawn
        assert res.value == float(drawn)

    def test_nonstrict_reports_divergence(self):
        res = adaptive_sum((float(k + 1) for k in count()), TruncationPolicy())
        assert not res.converged

    @pytest.mark.parametrize("terms, magnitude", [
        # D = -6 * 4, so the last shell is 5 / -24.
        ([1, (1, -6), (5, 4)], 5 / 24),
        # A last shell past the float range reads inf, and one below it 0.0.
        ([1, (10**400, -3)], math.inf),
        ([1, (-1, 10**400)], 0.0),
    ], ids=["negative-denominator", "overflow", "underflow"])
    def test_pair_terms_report_the_float_of_the_last_shell(self, terms, magnitude):
        # The magnitude of the last pair term n over D is the float of the
        # Fraction |n / D|, inf when that overflows.
        res = adaptive_sum(iter(terms), TruncationPolicy())
        den = math.prod(k for _, k in terms[1:])
        assert res.last_shell_magnitude == magnitude
        assert res.last_shell_magnitude == magnitude_as_float(abs(Fraction(terms[-1][0], den)))


@st.composite
def running_denominator_cases(draw):
    """Terms as the exact eval_f3 walk yields them, ``(n, k)`` pairs of ints
    over the running denominator D (times k first), after an optional plain
    int first term; the same terms as Fractions; a dyadic-tol policy; and an
    exact_bound that is None, under the cap or above it.

    Besides free terms, a term may sit exactly on the stall threshold:
    ``tol`` itself (k carries 2^j, so ``tol * D`` is an int), or
    ``S / (2^j - 1)``, whose magnitude is ``tol * |S + term|``."""
    j = draw(st.integers(1, 6))
    cap = draw(st.integers(1, 8))
    policy = TruncationPolicy(tol=2.0**-j, max_total_degree=cap,
                              stall_window=draw(st.integers(1, 4)))
    bound = draw(st.one_of(st.none(), st.integers(0, cap), st.integers(cap + 1, cap + 4)))
    ints, fractions = [], []
    total, den = 0, 1
    for s in range(draw(st.integers(1, cap + 3))):
        if s == 0 and draw(st.booleans()):
            total = draw(st.integers(-50, 50))
            ints.append(total)
            fractions.append(total)
            continue
        kind = draw(st.sampled_from(("free", "tol", "ratio")))
        k = draw(st.integers(1, 40)) * draw(st.sampled_from((1, -1)))
        k *= {"free": 1, "tol": 2**j, "ratio": 2**j - 1}[kind]
        den *= k
        if kind == "free":
            n = draw(st.integers(-abs(den), abs(den))) >> draw(st.integers(0, 12))
        elif kind == "tol":
            n = draw(st.sampled_from((1, -1))) * abs(den) // 2**j
        else:
            n = total * k // (2**j - 1)
        total = total * k + n
        ints.append((n, k))
        fractions.append(Fraction(n, den))
    return ints, fractions, policy, bound


@settings(max_examples=400, deadline=None)
@given(running_denominator_cases())
# |1| == tol * |1 + 1| is not below the threshold, so the sum is not converged.
@example(([1, (1, 1)], [1, Fraction(1)], TruncationPolicy(0.5, 1, 1), None))
# D = -8: |-1/8| < 1/4 * max(|-1/8|, 1) is max(|T|, |D|) = 8, not max(|T|, D) = 1.
@example(([0, (1, -8)], [0, Fraction(-1, 8)], TruncationPolicy(0.25, 1, 2), None))
def test_int_terms_over_a_running_denominator_sum_as_fractions(case):
    ints, fractions, policy, bound = case
    got = adaptive_sum(iter(ints), policy, bound)
    assert repr(got) == repr(adaptive_sum(iter(fractions), policy, bound))
