"""Tests for the resummation rule registry and the two-sided identity checker."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from f3sum import identities
from f3sum import (
    ArgumentTriple,
    BackendMismatchError,
    CheckReport,
    FAMILIES,
    FAMILY_COMBO,
    FamilyIndex,
    IDENTITY_IDS,
    IdentityInstance,
    InvalidIndexError,
    InvalidInputError,
    InvalidInstanceError,
    NUMERATOR_FAMILIES,
    ParameterSet,
    TruncationPolicy,
    check_identity,
    get_rule,
    instance_from_json,
    instance_to_json,
    list_identities,
    pochhammer,
    validate_instance,
)
from f3sum.identities import dd_weight, weight_value
from f3sum.suite import exact_instance

TIGHT = TruncationPolicy(tol=1e-13, max_total_degree=34, stall_window=3)

DENSE = dict(
    a=(1.1,), b=(0.7,), bp=(0.9,), bpp=(1.3,),
    c=(0.8,), cp=(1.7,), cpp=(0.6,),
    e=(1.9,), g=(1.2,), gp=(0.5,), gpp=(2.1,),
    h=(1.4,), hp=(0.95,), hpp=(1.6,),
)
DENSE_ARGS = ArgumentTriple(0.03, -0.02, 0.025)

SCALARS = {"t": 0.11, "r": 0.7, "d": 0.3}


def dense_instance(identity_id):
    rule = get_rule(identity_id)
    idx = None
    if rule.indexed_family is not None:
        idx = FamilyIndex(rule.indexed_family, 1)
    scalars = {name: SCALARS[name] for name in rule.scalar_names}
    return IdentityInstance(
        identity_id=identity_id,
        ps=ParameterSet(**DENSE),
        args=DENSE_ARGS,
        idx=idx,
        scalars=scalars,
    )


class TestRegistry:
    def test_canonical_order(self):
        assert IDENTITY_IDS == (
            "T1a", "T1b", "T1c",
            "T2x1", "T2x2", "T2x3",
            "T3a", "T3c",
            "T4a", "T4c",
            "T5c",
            "T6a", "T6c",
            "T7c",
            "T8c",
            "T9c", "T10c",
        )

    def test_get_rule_unknown(self):
        with pytest.raises(InvalidInstanceError):
            get_rule("T99")

    def test_list_identities(self):
        rows = list_identities()
        assert [r["id"] for r in rows] == list(IDENTITY_IDS)
        assert all(r["summary"] for r in rows)

    @pytest.mark.parametrize("rid", IDENTITY_IDS)
    def test_indexed_family_layout(self, rid):
        rule = get_rule(rid)
        if rid.startswith("T2"):
            assert rule.indexed_family is None
        elif rid.endswith("a"):
            assert rule.indexed_family == "a"
        elif rid == "T1b":
            assert rule.indexed_family == "b"
        else:
            assert rule.indexed_family == "c"


class TestDdWeight:
    def test_zero_order(self):
        assert dd_weight(0, Fraction(1, 3)) == 1
        assert dd_weight(0, 0) == 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_ratio_form(self, k):
        # equals (d)_k (1 + d/2)_k / (d/2)_k wherever that form is defined
        d = Fraction(2, 7)
        want = (
            pochhammer(d, k) * pochhammer(1 + d / 2, k) / pochhammer(d / 2, k)
        )
        assert dd_weight(k, d) == want

    @pytest.mark.parametrize("k", range(1, 5))
    def test_defined_at_zero_d(self, k):
        # the ratio form is 0/0 here; the product form gives the limit 2*k!
        assert dd_weight(k, 0) == 2 * pochhammer(1, k)


class TestInstanceValidation:
    def test_missing_scalar(self):
        inst = dense_instance("T1a")
        bad = IdentityInstance("T1a", inst.ps, inst.args, idx=inst.idx, scalars={})
        with pytest.raises(InvalidInstanceError):
            validate_instance(bad)

    def test_extra_scalar(self):
        inst = dense_instance("T3c")
        bad = IdentityInstance(
            "T3c", inst.ps, inst.args, idx=inst.idx,
            scalars={"r": 0.5, "t": 0.1},
        )
        with pytest.raises(InvalidInstanceError):
            validate_instance(bad)

    def test_wrong_indexed_family(self):
        inst = dense_instance("T1a")
        bad = IdentityInstance(
            "T1a", inst.ps, inst.args,
            idx=FamilyIndex("c", 1), scalars={"t": 0.1},
        )
        with pytest.raises(InvalidInstanceError):
            validate_instance(bad)

    def test_index_required(self):
        inst = dense_instance("T1a")
        with pytest.raises(InvalidInstanceError):
            validate_instance(
                IdentityInstance("T1a", inst.ps, inst.args, scalars={"t": 0.1})
            )

    def test_index_forbidden(self):
        inst = dense_instance("T2x1")
        bad = IdentityInstance(
            "T2x1", inst.ps, inst.args,
            idx=FamilyIndex("a", 1), scalars={"t": 0.1},
        )
        with pytest.raises(InvalidInstanceError):
            validate_instance(bad)

    def test_geometric_scalar_at_one(self):
        inst = dense_instance("T1a")
        bad = IdentityInstance(
            "T1a", inst.ps, inst.args, idx=inst.idx, scalars={"t": 1.0}
        )
        with pytest.raises(InvalidInstanceError):
            validate_instance(bad)

    def test_even_negative_d_rejected(self):
        inst = dense_instance("T6c")
        bad = IdentityInstance(
            "T6c", inst.ps, inst.args, idx=inst.idx, scalars={"d": -2.0}
        )
        with pytest.raises(InvalidInstanceError):
            validate_instance(bad)

    def test_t9c_needs_zero_argument_with_zero_t(self):
        inst = dense_instance("T9c")
        bad = IdentityInstance(
            "T9c", inst.ps, inst.args, idx=inst.idx, scalars={"t": 0.0}
        )
        with pytest.raises(InvalidInstanceError):
            validate_instance(bad)

    def test_t10c_unit_argument_rejected(self):
        inst = dense_instance("T10c")
        ps = inst.ps
        bad = IdentityInstance(
            "T10c", ps, ArgumentTriple(1.0, 0.01, 0.01),
            idx=inst.idx, scalars={"t": 0.2},
        )
        with pytest.raises(InvalidInstanceError):
            validate_instance(bad)

    def test_valid_instance_returns_rule(self):
        rule = validate_instance(dense_instance("T5c"))
        assert rule.identity_id == "T5c"

    # c[i] = 1/2 puts each rule's downstairs scalar factor (d + r + c[i] for
    # T5c, 1 + r + c[i]/2 for T7c, 1 + d + c[i]/2 for T8c) at 0, then at -1.
    @pytest.mark.parametrize("rid, scalars", [
        ("T5c", {"d": Fraction(1, 2), "r": Fraction(-1)}),
        ("T5c", {"d": Fraction(1, 2), "r": Fraction(-2)}),
        ("T7c", {"r": Fraction(-5, 4)}),
        ("T7c", {"r": Fraction(-9, 4)}),
        ("T8c", {"d": Fraction(-5, 4)}),
        ("T8c", {"d": Fraction(-9, 4)}),
    ])
    def test_downstairs_weight_pole_rejected(self, rid, scalars):
        bad = IdentityInstance(
            rid, ParameterSet(c=(Fraction(1, 2),)),
            ArgumentTriple(Fraction(1, 10), 0, 0),
            idx=FamilyIndex("c", 1), scalars=scalars,
        )
        with pytest.raises(InvalidInstanceError, match="nonpositive integer"):
            validate_instance(bad)


class TestStoredBackend:
    # The rational instance's parameters, built directly, or rebuilt by
    # dataclasses.replace from a float set, whose stored classification must
    # not carry over.
    @staticmethod
    def rational(build):
        inst = exact_instance("T2x1", 0, 0)
        if build == "replaced":
            fields = {name: getattr(inst.ps, name) for name in FAMILIES}
            ps = dataclasses.replace(ParameterSet(e=(0.5,)), **fields)
            assert ps == inst.ps
            inst = dataclasses.replace(inst, ps=ps)
        return inst

    @pytest.mark.parametrize("build", ["direct", "replaced"])
    def test_float_scalar_on_rational_instance_rejected(self, build):
        inst = dataclasses.replace(self.rational(build), scalars={"t": 0.1})
        with pytest.raises(BackendMismatchError):
            validate_instance(inst)

    @pytest.mark.parametrize("build", ["direct", "replaced"])
    def test_float_argument_on_rational_instance_rejected(self, build):
        inst = self.rational(build)
        inst = dataclasses.replace(inst, args=ArgumentTriple(0.01, inst.args.x2, inst.args.x3))
        with pytest.raises(BackendMismatchError):
            validate_instance(inst)

    @pytest.mark.parametrize("build", ["direct", "replaced"])
    def test_int_parameters_take_either_backend(self, build):
        fields = dict(b=(2,), c=(-1,), cp=(-1,), cpp=(-1,), h=(3,))
        ps = ParameterSet(**fields)
        if build == "replaced":
            ps = dataclasses.replace(ParameterSet(e=(0.5,)), e=(), **fields)
        floated = IdentityInstance("T2x1", ps, ArgumentTriple(0.01, 0.02, 0.03), scalars={"t": 0.1})
        exact = IdentityInstance(
            "T2x1", ps, ArgumentTriple(Fraction(1, 9), 0, 0), scalars={"t": Fraction(1, 7)}
        )
        assert validate_instance(floated) is validate_instance(exact)
        assert check_identity(floated).passed
        assert check_identity(exact).residual == 0.0


class TestGuards:
    def test_geometric_guard_is_soft(self):
        inst = dense_instance("T1a")
        big_t = IdentityInstance(
            "T1a", inst.ps, inst.args, idx=inst.idx, scalars={"t": 1.7}
        )
        rep = check_identity(big_t)
        assert not rep.passed
        assert rep.reason is not None
        assert "1.7" in rep.reason

    def test_t10c_ratio_guard(self):
        inst = dense_instance("T10c")
        # |t + x1| / |x1 - 1| >= 1 makes the outer sum a divergent series
        rep = check_identity(
            IdentityInstance(
                "T10c", inst.ps, ArgumentTriple(0.03, -0.02, 0.025),
                idx=inst.idx, scalars={"t": 1.2},
            )
        )
        assert not rep.passed
        assert rep.reason is not None

    def test_zero_radius_weight_is_refused(self):
        # Six upstairs entries along x1 and none downstairs: the outer
        # weight of T2x1 grows like (k!)**5, so no t makes the sum converge.
        inst = IdentityInstance(
            "T2x1",
            ParameterSet(a=(1.1, 1.3), b=(0.7, 0.9), c=(0.8, 1.5)),
            ArgumentTriple(1e-4, 0, 0),
            scalars={"t": 1e-3},
        )
        rep = check_identity(inst)
        assert not rep.passed
        assert "zero radius" in rep.reason
        assert rep.lhs_diag is None

    @pytest.mark.parametrize("t", [1.5, -1.0])
    def test_zero_excess_weight_needs_unit_ratio(self, t):
        # One upstairs entry against the 1/k!: w(k) = (a)_k t**k / k!.
        inst = IdentityInstance(
            "T2x1", ParameterSet(a=(1.1,)), ArgumentTriple(0.1, 0, 0),
            scalars={"t": t},
        )
        rep = check_identity(inst)
        assert not rep.passed
        assert rep.lhs_diag is None
        assert str(abs(t)) in rep.reason

    def test_entire_weight_is_never_refused(self):
        # (a)_k / (e)_k / k!: the outer sum converges at every t.
        inst = IdentityInstance(
            "T2x1", ParameterSet(a=(1.1,), e=(1.9,)), ArgumentTriple(0.1, 0, 0),
            scalars={"t": 1.5},
        )
        assert check_identity(inst).passed


class TestDenseInstances:
    @pytest.mark.parametrize("rid", IDENTITY_IDS)
    def test_dense_float_instance_passes(self, rid):
        rep = check_identity(dense_instance(rid), policy=TIGHT, residual_tol=1e-10)
        assert rep.passed, rep
        assert rep.residual <= 5e-13
        assert rep.converged_lhs and rep.converged_rhs

    @pytest.mark.parametrize("rid", IDENTITY_IDS)
    def test_report_json_shape(self, rid):
        rep = check_identity(dense_instance(rid), policy=TIGHT)
        data = rep.to_json_dict()
        assert data["identity_id"] == rid
        assert set(data) == {
            "identity_id", "pass", "lhs", "rhs", "residual",
            "converged_lhs", "converged_rhs", "reason",
        }


def collapse_scalars(rule):
    """Scalar values that collapse the outer sum to its k = 0 term."""
    return {name: 0.0 for name in rule.scalar_names}


class TestDegenerateCollapse:
    @pytest.mark.parametrize("rid", IDENTITY_IDS)
    def test_zero_scalars_collapse_to_equality(self, rid):
        rule = get_rule(rid)
        ps = ParameterSet(**DENSE)
        args = DENSE_ARGS
        if rid in ("T9c", "T10c"):
            # zero geometric scalar forces a zero first argument too
            args = ArgumentTriple(0.0, -0.02, 0.025)
        idx = None
        if rule.indexed_family is not None:
            idx = FamilyIndex(rule.indexed_family, 1)
        inst = IdentityInstance(rid, ps, args, idx=idx, scalars=collapse_scalars(rule))
        rep = check_identity(inst, policy=TIGHT, residual_tol=1e-13)
        assert rep.passed, rep
        assert rep.residual <= 1e-13


class TestExactInstances:
    def test_terminating_rational_t1c(self):
        ps = ParameterSet(
            c=(-3, Fraction(2, 7)), cp=(-1,), cpp=(-1,),
            e=(Fraction(9, 7),),
        )
        inst = IdentityInstance(
            "T1c", ps,
            ArgumentTriple(Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)),
            idx=FamilyIndex("c", 1),
            scalars={"t": Fraction(2, 7)},
        )
        rep = check_identity(inst)
        assert rep.passed
        assert rep.residual == 0
        assert rep.lhs_diag.terminated_exactly
        assert rep.rhs_diag.terminated_exactly

    def test_terminating_rational_t5c(self):
        ps = ParameterSet(
            c=(Fraction(3, 7), -1), cp=(-1,), cpp=(-1,),
            h=(Fraction(10, 7),),
        )
        inst = IdentityInstance(
            "T5c", ps,
            ArgumentTriple(Fraction(2, 9), Fraction(-1, 9), Fraction(1, 9)),
            idx=FamilyIndex("c", 1),
            scalars={"d": Fraction(1, 3), "r": Fraction(2, 3)},
        )
        rep = check_identity(inst)
        assert rep.passed
        assert rep.residual == 0


class TestPoleShortCircuit:
    def test_zero_weight_skips_inner_evaluation(self):
        # the indexed entry -2 kills every outer term past k = 2; those
        # dropped terms would otherwise hit the h pole at order 4
        ps = ParameterSet(
            c=(-2, -1), cp=(-1,), cpp=(-1,), h=(Fraction(-7, 2),),
        )
        inst = IdentityInstance(
            "T3c", ps,
            ArgumentTriple(Fraction(1, 5), Fraction(1, 7), Fraction(-1, 7)),
            idx=FamilyIndex("c", 1),
            scalars={"r": Fraction(1, 3)},
        )
        rep = check_identity(inst)
        assert rep.converged_lhs


class TestDerivedParams:
    @pytest.mark.parametrize("rid, side", [
        ("T1a", "lhs"), ("T3c", "lhs"), ("T4a", "lhs"), ("T6c", "lhs"), ("T9c", "lhs"),
        ("T3a", "rhs"), ("T4c", "rhs"), ("T5c", "rhs"),
    ])
    def test_index_out_of_range(self, rid, side):
        # Every derived set that reads or moves the indexed entry checks the
        # index against its family, unvalidated instances included.
        rule = get_rule(rid)
        inst = dense_instance(rid)
        inst = IdentityInstance(
            rid, inst.ps, inst.args, idx=FamilyIndex(rule.indexed_family, 2),
            scalars=inst.scalars,
        )
        with pytest.raises(InvalidIndexError, match="out of range"):
            rule.lhs_params(inst, 1) if side == "lhs" else rule.rhs_params(inst)


def series_coefficient(ps, m):
    """L_ps(m), the coefficient of x**m / m! in the triple series: each
    upstairs entry's Pochhammer symbol over each downstairs one's, at the
    order FAMILY_COMBO gives its family."""
    value = Fraction(1)
    for name in FAMILIES:
        order = sum(w * mi for w, mi in zip(FAMILY_COMBO[name], m))
        for v in ps.family(name):
            p = pochhammer(v, order)
            value = value * p if name in NUMERATOR_FAMILIES else value / p
    return value


def factorial3(m):
    return math.factorial(m[0]) * math.factorial(m[1]) * math.factorial(m[2])


# Every lattice point of total degree at most 4.
LOW_DEGREE = [m for m in itertools.product(range(5), repeat=3) if sum(m) <= 4]


def generic_instance(rid, i):
    """A rational instance on which no series terminates: 0-2 sevenths per
    family (1-2 in the indexed one), ``r`` and ``d`` in thirds, ``t`` and
    every argument 1, so each weight value is its coefficient alone."""
    rule = get_rule(rid)
    rng = random.Random(f"coefficients:{rid}:{i}")
    sevenths = [Fraction(n, 7) for n in range(-20, 21) if n % 7]
    lengths = {name: rng.randrange(3) for name in FAMILIES}
    if rule.indexed_family is not None:
        lengths[rule.indexed_family] = rng.randrange(1, 3)
    ps = ParameterSet(**{
        name: tuple(rng.choice(sevenths) for _ in range(n)) for name, n in lengths.items()
    })
    idx = None
    if rule.indexed_family is not None:
        idx = FamilyIndex(rule.indexed_family, rng.randrange(1, lengths[rule.indexed_family] + 1))
    scalars = {
        name: 1 if name == "t" else Fraction(rng.choice((-4, -2, -1, 1, 2, 4, 5)), 3)
        for name in rule.scalar_names
    }
    return IdentityInstance(rid, ps, ArgumentTriple(1, 1, 1), idx=idx, scalars=scalars)


X1_SERIES_RULES = ("T3a", "T3c", "T4a", "T4c", "T5c", "T6a", "T6c", "T7c", "T8c")


class TestExactCoefficients:
    """Each rule compared with its right side coefficient by coefficient, in
    exact arithmetic: the left side's weights, left-side parameters and
    right-side parameters meet in every power of the arguments."""

    @pytest.mark.parametrize("rid", X1_SERIES_RULES)
    @pytest.mark.parametrize("i", range(3))
    def test_x1_series_rule(self, rid, i):
        # sum over k <= m1 of W(k) L_lhs(k)(m1-k, m2, m3) / ((m1-k)! m2! m3!)
        # is L_rhs(m) / m!, with W(k) the weight without its power of x1.
        rule = get_rule(rid)
        inst = generic_instance(rid, i)
        weights = [weight_value(rule.weight, inst, k) for k in range(5)]
        lhs_sets = [rule.lhs_params(inst, k) for k in range(5)]
        rhs_set = rule.rhs_params(inst)
        for m in LOW_DEGREE:
            lhs = sum(
                weights[k] * series_coefficient(lhs_sets[k], (m[0] - k, m[1], m[2]))
                / factorial3((m[0] - k, m[1], m[2]))
                for k in range(m[0] + 1)
            )
            assert lhs == series_coefficient(rhs_set, m) / factorial3(m), m

    @pytest.mark.parametrize("direction", range(3))
    @pytest.mark.parametrize("i", range(3))
    def test_translation_rule(self, direction, i):
        # The coefficient of t**j x**m: W(j) L_lhs(j)(m) / m! on the left and
        # C(m_d + j, j) L_ps(m + j e_d) / (m + j e_d)! on the right.
        rid = f"T2x{direction + 1}"
        rule = get_rule(rid)
        inst = generic_instance(rid, i)
        for m in LOW_DEGREE:
            for j in range(5 - sum(m)):
                lhs = (
                    weight_value(rule.weight, inst, j)
                    * series_coefficient(rule.lhs_params(inst, j), m) / factorial3(m)
                )
                moved = list(m)
                moved[direction] += j
                rhs = (
                    math.comb(moved[direction], j)
                    * series_coefficient(inst.ps, moved) / factorial3(moved)
                )
                assert lhs == rhs, (m, j)


class TestInstanceJson:
    @pytest.mark.parametrize("rid", ["T1a", "T2x2", "T5c", "T10c"])
    def test_round_trip(self, rid):
        inst = dense_instance(rid)
        data = instance_to_json(inst)
        back = instance_from_json(data, backend="float64")
        assert back == inst

    def test_rational_round_trip(self):
        ps = ParameterSet(c=(-3, Fraction(2, 7)), cp=(-1,), e=(Fraction(9, 7),))
        inst = IdentityInstance(
            "T3c", ps, ArgumentTriple(Fraction(1, 3), 0, 0),
            idx=FamilyIndex("c", 1), scalars={"r": Fraction(1, 3)},
        )
        back = instance_from_json(instance_to_json(inst), backend="rational")
        assert back == inst

    @pytest.mark.parametrize("scalars", [
        (("t", 0.1), ("r", 0.3)),
        [("t", 0.1), ("r", 0.3)],
        {"t": 0.1, "r": 0.3},
    ], ids=["tuple", "list", "dict"])
    def test_scalars_sort_in_every_form(self, scalars):
        # Equal scalars give equal instances whatever their form and order.
        ps, idx = ParameterSet(a=(0.5,)), FamilyIndex("a", 1)
        inst = IdentityInstance("T3a", ps, DENSE_ARGS, idx=idx, scalars=scalars)
        want = IdentityInstance("T3a", ps, DENSE_ARGS, idx=idx, scalars={"r": 0.3, "t": 0.1})
        assert inst.scalars == (("r", 0.3), ("t", 0.1))
        assert inst == want
        assert repr(inst) == repr(want)
        assert hash(inst) == hash(want)

    def test_unknown_id(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_json(
                {"id": "T0", "params": {}, "args": [0, 0, 0]}, backend="float64"
            )


class TestCheckReportSemantics:
    def test_eval_exception_becomes_failed_report(self):
        # h = -1 poles the inner series on the very first shell
        ps = ParameterSet(**{**DENSE, "h": (-1.0,)})
        inst = IdentityInstance(
            "T1a", ps, DENSE_ARGS,
            idx=FamilyIndex("a", 1), scalars={"t": 0.11},
        )
        rep = check_identity(inst)
        assert isinstance(rep, CheckReport)
        assert not rep.passed
        assert "DenominatorPoleError" in rep.reason

    @pytest.mark.parametrize("cap", [0, -3])
    def test_outer_cap_below_one_raises(self, cap):
        # A cap below 1 is a caller error, not a failed check.
        with pytest.raises(InvalidInputError, match="max_total_degree must be >= 1"):
            check_identity(dense_instance("T1a"), outer_cap=cap)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_negative_or_nan_residual_tol_raises(self, tol):
        # A tolerance no residual can meet is a caller error, not a failed
        # check.
        with pytest.raises(InvalidInputError, match="residual_tol must be >= 0"):
            check_identity(dense_instance("T1a"), residual_tol=tol)

    def test_zero_residual_tol_asks_for_exact_equality(self):
        assert check_identity(exact_instance("T1a", 0, 0), residual_tol=0.0).passed

    def test_internal_value_error_propagates(self, monkeypatch):
        # Only F3Error and arithmetic failures become failed reports; a bare
        # ValueError from inside the evaluation is a bug and must surface.
        def broken(*args):
            raise ValueError("internal bug")

        monkeypatch.setattr(identities, "_lhs_value", broken)
        with pytest.raises(ValueError, match="internal bug"):
            check_identity(dense_instance("T1a"))

    def test_exact_terminating_sides_both_converge(self):
        # Both sides are finite sums with residual exactly 0; each must be
        # reported converged, so the check passes.
        rep = check_identity(exact_instance("T3a", 176, 1))
        assert rep.residual == 0
        assert rep.converged_lhs and rep.converged_rhs
        assert rep.passed

    def test_not_converged_is_not_a_pass(self):
        inst = dense_instance("T1a")
        rep = check_identity(
            inst,
            policy=TruncationPolicy(tol=1e-300, max_total_degree=6, stall_window=2),
        )
        assert not rep.passed
        assert not (rep.converged_lhs and rep.converged_rhs)
