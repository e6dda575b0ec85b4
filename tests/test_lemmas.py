"""Tests for the closed-form summation lemmas against the 1-D series engine.

Every closed form is cross-checked by actually summing the series it claims
to equal, in exact rational arithmetic, so the two sides share no algebra.
"""

from fractions import Fraction

import pytest

from f3sum import (
    DenominatorPoleError,
    InvalidInputError,
    InvalidInstanceError,
    PoleAtOneError,
    binomial_1f0,
    eval_pfq,
    lemma_case,
    nearly_poised_3f2,
    saalschutz_3f2,
    twob_balanced_3f2,
    vandermonde_2f1,
    watson_4f3,
)

A = Fraction(3, 7)
B = Fraction(-5, 7)
C = Fraction(26, 7)


def exact_series(upper, lower, x=1):
    res = eval_pfq(upper, lower, x)
    assert res.terminated_exactly
    return res.value


class TestBinomial:
    def test_spot(self):
        assert binomial_1f0(2, Fraction(1, 3)) == Fraction(9, 4)

    def test_matches_series(self):
        a, t = Fraction(-3, 1), Fraction(2, 7)
        assert binomial_1f0(a, t) == exact_series([a], [], t)

    def test_float(self):
        assert binomial_1f0(1.5, 0.2) == pytest.approx(0.8 ** -1.5, rel=1e-14)

    def test_pole_at_one(self):
        with pytest.raises(PoleAtOneError):
            binomial_1f0(0.5, 1)
        with pytest.raises(PoleAtOneError):
            binomial_1f0(Fraction(1, 2), Fraction(7, 7))


class TestVandermonde:
    def test_spot(self):
        assert vandermonde_2f1(2, 1, 3) == Fraction(1, 2)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_series(self, n):
        assert vandermonde_2f1(n, A, C) == exact_series([-n, A], [C])

    def test_bad_order(self):
        with pytest.raises(InvalidInputError):
            vandermonde_2f1(-1, A, C)


class TestSaalschutz:
    def test_spot(self):
        assert saalschutz_3f2(1, 1, 2, 4) == Fraction(3, 2)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_series(self, n):
        # the balancing lower entry depends on n
        lower2 = 1 + A + B - C - n
        assert saalschutz_3f2(n, A, B, C) == exact_series([-n, A, B], [C, lower2])


class TestNearlyPoised:
    def test_spot(self):
        assert nearly_poised_3f2(1, 1, 4) == Fraction(1, 4)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_series(self, n):
        cases = [(A, C)]
        if n:
            # b - a = 1 puts a Pochhammer ratio for this sum at 0/0, but the
            # closed form stays finite for n >= 1 (-7/8 at n = 1).
            cases.append((Fraction(1, 7), Fraction(8, 7)))
        for a, b in cases:
            got = nearly_poised_3f2(n, a, b)
            want = exact_series([-n, a, 1 + a / 2], [a / 2, b])
            assert got == want

    def test_zero_order(self):
        assert nearly_poised_3f2(0, A, C) == 1

    def test_degenerate_rejected(self):
        # b - a - 1 = 0 puts the n = 0 closed form on a removable singularity
        with pytest.raises(DenominatorPoleError):
            nearly_poised_3f2(0, 1, 2)


class TestTwobBalanced:
    def test_spot(self):
        assert twob_balanced_3f2(1, 2, 0.5) == pytest.approx(0.6, rel=1e-14)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_series(self, n):
        a, b = A, B
        got = twob_balanced_3f2(n, a, b)
        want = exact_series([-n, a, b], [1 + a - b, 1 + 2 * b - n])
        assert got == want


class TestWatson:
    def test_spot(self):
        assert watson_4f3(1, 2, 0.5) == pytest.approx(0.2, rel=1e-14)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_series(self, n):
        a, b = A, B
        got = watson_4f3(n, a, b)
        want = exact_series(
            [-n, a, 1 + a / 2, b],
            [a / 2, 1 + a - b, 1 + 2 * b - n],
        )
        assert got == want


# Each Pochhammer closed form with arguments that zero one of its downstairs
# Pochhammer symbols at order 2, and the text of the error it raises there.
POLES = [
    (vandermonde_2f1, (A, -1), "2F1(-n,a;c;1)"),
    (saalschutz_3f2, (A, B, -1), "balanced 3F2"),
    (nearly_poised_3f2, (A, -1), "nearly-poised 3F2"),
    (twob_balanced_3f2, (A, Fraction(1, 2)), "two-b balanced 3F2"),
    (watson_4f3, (A, Fraction(1, 2)), "Watson-type 4F3"),
]


@pytest.mark.parametrize(
    "closed_form, params, what", POLES, ids=[f.__name__ for f, _, _ in POLES]
)
def test_closed_form_error_paths(closed_form, params, what):
    with pytest.raises(InvalidInputError) as info:
        closed_form(-1, *params)
    assert str(info.value) == "terminating order must be a non-negative int, got -1"
    with pytest.raises(DenominatorPoleError) as info:
        closed_form(2, *params)
    assert str(info.value) == f"closed form for {what} hits a zero denominator"


def test_unknown_lemma_case_is_typed():
    # raised before the retry loop, which would swallow it and end in RuntimeError
    with pytest.raises(InvalidInstanceError, match="unknown lemma 'nope'"):
        lemma_case("nope", 0, 0)
