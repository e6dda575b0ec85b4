"""Tests for the classical three-variable special cases.

The oracles below sum each classical series definition directly with a local
rising-factorial helper, so they share no arithmetic with the package.
"""

import math
from fractions import Fraction

import pytest

from f3sum import (
    FLOAT64,
    LAYOUTS,
    RATIONAL,
    ArgumentTriple,
    FamilyIndex,
    InvalidInputError,
    InvalidInstanceError,
    ParameterSet,
    TruncationPolicy,
    check_special_case,
    eval_f3,
    special_case_inputs,
    special_case_instance,
    special_params,
)
from f3sum.special import SPECIAL_KINDS

TIGHT = TruncationPolicy(tol=1e-14, max_total_degree=32, stall_window=3)


def rising(x, k):
    out = 1.0
    for j in range(k):
        out *= x + j
    return out


def triple_sum(term, degree):
    total = 0.0
    for m1 in range(degree + 1):
        for m2 in range(degree + 1 - m1):
            for m3 in range(degree + 1 - m1 - m2):
                total += term(m1, m2, m3)
    return total


def fa3_oracle(a, b1, b2, b3, c1, c2, c3, x, degree=24):
    x1, x2, x3 = x

    def term(m1, m2, m3):
        return (
            rising(a, m1 + m2 + m3)
            * rising(b1, m1) * rising(b2, m2) * rising(b3, m3)
            / (rising(c1, m1) * rising(c2, m2) * rising(c3, m3))
            * x1**m1 * x2**m2 * x3**m3
            / (math.factorial(m1) * math.factorial(m2) * math.factorial(m3))
        )

    return triple_sum(term, degree)


def fd3_oracle(a, b1, b2, b3, c, x, degree=24):
    x1, x2, x3 = x

    def term(m1, m2, m3):
        return (
            rising(a, m1 + m2 + m3)
            * rising(b1, m1) * rising(b2, m2) * rising(b3, m3)
            / rising(c, m1 + m2 + m3)
            * x1**m1 * x2**m2 * x3**m3
            / (math.factorial(m1) * math.factorial(m2) * math.factorial(m3))
        )

    return triple_sum(term, degree)


def ha_oracle(a, b1, b2, c1, c2, x, degree=24):
    x1, x2, x3 = x

    def term(m1, m2, m3):
        return (
            rising(a, m1 + m3)
            * rising(b1, m1 + m2)
            * rising(b2, m2 + m3)
            / (rising(c1, m1) * rising(c2, m2 + m3))
            * x1**m1 * x2**m2 * x3**m3
            / (math.factorial(m1) * math.factorial(m2) * math.factorial(m3))
        )

    return triple_sum(term, degree)


ARGS = ArgumentTriple(0.04, -0.03, 0.05)


class TestEmbeddings:
    def test_fa3_matches_classical_series(self):
        ps = special_params("fa3", 0.9, 0.6, 1.2, 0.8, 1.7, 1.3, 2.1)
        res = eval_f3(ps, ARGS, TIGHT)
        assert res.converged
        oracle = fa3_oracle(0.9, 0.6, 1.2, 0.8, 1.7, 1.3, 2.1, tuple(ARGS))
        assert res.value == pytest.approx(oracle, rel=1e-12)

    def test_fd3_matches_classical_series(self):
        ps = special_params("fd3", 1.1, 0.5, 0.7, 0.9, 2.3)
        res = eval_f3(ps, ARGS, TIGHT)
        oracle = fd3_oracle(1.1, 0.5, 0.7, 0.9, 2.3, tuple(ARGS))
        assert res.value == pytest.approx(oracle, rel=1e-12)

    def test_ha_matches_classical_series(self):
        ps = special_params("ha", 0.8, 1.4, 0.6, 1.9, 1.2)
        res = eval_f3(ps, ARGS, TIGHT)
        oracle = ha_oracle(0.8, 1.4, 0.6, 1.9, 1.2, tuple(ARGS))
        assert res.value == pytest.approx(oracle, rel=1e-12)

    def test_fd3_one_variable_collapse(self):
        # with x2 = x3 = 0 the series is Gauss 2F1(a, b1; c; x1)
        ps = special_params("fd3", 1.3, 0.7, 0.5, 0.9, 2.1)
        res = eval_f3(ps, ArgumentTriple(0.2, 0.0, 0.0), TIGHT)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            gauss = mpmath.hyp2f1(1.3, 0.7, 2.1, 0.2)
        assert res.value == pytest.approx(float(gauss), rel=1e-13)

    def test_layouts(self):
        assert special_params("fa3", 1, 2, 3, 4, 5, 6, 7) == ParameterSet(
            a=(1,), c=(2,), cp=(3,), cpp=(4,), h=(5,), hp=(6,), hpp=(7,)
        )
        assert special_params("fd3", 1, 2, 3, 4, 5) == ParameterSet(
            a=(1,), c=(2,), cp=(3,), cpp=(4,), e=(5,)
        )
        assert special_params("ha", 1, 2, 3, 4, 5) == ParameterSet(
            bpp=(1,), b=(2,), bp=(3,), h=(4,), gp=(5,)
        )

    @pytest.mark.parametrize("kind", SPECIAL_KINDS)
    def test_wrong_parameter_count(self, kind):
        arity = len(LAYOUTS[kind].families)
        for count in (arity - 1, arity + 1):
            with pytest.raises(InvalidInputError, match=f"takes {arity} parameters"):
                special_params(kind, *range(1, count + 1))

    @pytest.mark.parametrize("kind", SPECIAL_KINDS)
    def test_rows_draw_one_value_per_parameter(self, kind):
        layout = LAYOUTS[kind]
        assert len(layout.draws) == len(layout.families)
        assert set(layout.draws) <= {"-n", "-m", "up", "down"}


class TestSpecialCaseChecks:
    def test_kinds(self):
        assert SPECIAL_KINDS == ("fa3", "fd3", "ha")

    def test_unknown_kind(self):
        with pytest.raises(InvalidInstanceError):
            special_case_instance("zz", ParameterSet(), ARGS, 0.1)

    @pytest.mark.parametrize("backend", (FLOAT64, RATIONAL))
    def test_unknown_kind_inputs(self, backend):
        with pytest.raises(InvalidInstanceError, match="unknown special case 'zz'"):
            special_case_inputs("zz", 0, 0, backend)

    def test_fa3_instance_shape(self):
        ps = special_params("fa3", 0.9, 0.6, 1.2, 0.8, 1.7, 1.3, 2.1)
        inst = special_case_instance("fa3", ps, ARGS, 0.12)
        assert inst.identity_id == "T1a"
        assert inst.idx == FamilyIndex("a", 1)
        assert inst.scalar("t") == 0.12

    def test_ha_instance_shape(self):
        ps = special_params("ha", 0.8, 1.4, 0.6, 1.9, 1.2)
        inst = special_case_instance("ha", ps, ARGS, 0.12)
        assert inst.identity_id == "T2x1"
        assert inst.idx is None

    @pytest.mark.parametrize("kind", SPECIAL_KINDS)
    def test_float_check_passes(self, kind):
        values = {
            "fa3": (0.9, 0.6, 1.2, 0.8, 1.7, 1.3, 2.1),
            "fd3": (1.1, 0.5, 0.7, 0.9, 2.3),
            "ha": (0.8, 1.4, 0.6, 1.9, 1.2),
        }
        ps = special_params(kind, *values[kind])
        rep = check_special_case(kind, ps, ARGS, 0.1, policy=TIGHT)
        assert rep.passed, rep
        assert rep.residual <= 1e-10

    def test_rational_check_is_exact(self):
        # a = -3 terminates every direction at total degree 3
        ps = special_params(
            "fd3", -3, Fraction(2, 7), Fraction(3, 7), Fraction(5, 7), Fraction(16, 7)
        )
        args = ArgumentTriple(Fraction(1, 4), Fraction(-1, 5), Fraction(1, 6))
        rep = check_special_case("fd3", ps, args, Fraction(2, 7))
        assert rep.passed
        assert rep.residual == 0
        assert rep.lhs_diag.terminated_exactly
