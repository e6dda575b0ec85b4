"""Golden outputs: digests of suite bytes, exact rule values and engine bits.

The other determinism tests compare runs of the same code with each other;
these pin the outputs themselves, so a refactor that reorders a float
product or a table and changes a single bit fails here.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from f3sum import (
    FLOAT64,
    IDENTITY_IDS,
    LEMMA_NAMES,
    RATIONAL,
    SPECIAL_KINDS,
    ArgumentTriple,
    ParameterSet,
    SuiteConfig,
    TruncationPolicy,
    check_identity,
    eval_f3,
    eval_pfq,
    get_rule,
    lemma_case,
    list_identities,
    run_suite,
    special_case_inputs,
    special_case_instance,
    write_rows_csv,
)
from f3sum.identities import weight_bound, weight_divergence, weight_value
from f3sum.params import FAMILIES, NUMERATOR_FAMILIES, families_along
from f3sum.suite import exact_instance, random_instance

SUITE_CSV_SHA256 = "3d75b7fbebecee902dbd7b13b1ba55eef430a795105288022b52017ac62e9ade"
EXACT_VALUES_SHA256 = "4100da0ab6daa0d5b30d9ef4e810fbfed0bcb39198f65b0126d27074110bd463"
EVAL_F3_SHA256 = "71a6e28b169b529bc46a284b3bd940a9cdb72ababc76eda6f8455ab03666aee1"
X1_SERIES_SHA256 = "e8559cf20eb64e29cae60a6420307b0af74dbbc52a56d3b5d2d6dd3f2ed6a018"
SUITE_RATIONAL_CSV_SHA256 = "55b147ef251e629a11caba7f35e4f1b2476364d276f593ee5c7dc6f6ff30b773"
SPECIAL_CASES_SHA256 = "3560e9838022552161353bc18f164316df3626d26fd1fbf8ae59043d72d4110d"
LEMMA_SERIES_SHA256 = "8d1de701be4c17297a09d2c2499f7945c13f4ff0e784beae177cd49943acfc37"
DERIVED_PARAMS_SHA256 = "a1c2d15a47a3e3b9dbfb1d82e8973ad3400ab7120bc5638841816e0a3cf8c364"
RULE_TABLE_SHA256 = "650c78ed0e2042ee6733e902821c80739329ca155ab3b2bfa532a18fc6766cf2"

# Rules whose outer variable is x1: their weights multiply the x1-coupled
# families in families_along(0) order.
X1_SERIES_RULES = ("T3a", "T3c", "T4a", "T4c", "T5c", "T6a", "T6c", "T7c", "T8c")
SHORT_POLICY = TruncationPolicy(tol=1e-9, max_total_degree=12, stall_window=2)


def test_float_suite_csv_digest(tmp_path):
    _, rows = run_suite(SuiteConfig(seed=0, instances=2))
    path = tmp_path / "suite.csv"
    write_rows_csv(rows, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_CSV_SHA256


def test_rational_suite_csv_digest(tmp_path):
    _, rows = run_suite(SuiteConfig(seed=0, instances=5, backend=RATIONAL))
    path = tmp_path / "suite.csv"
    write_rows_csv(rows, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_RATIONAL_CSV_SHA256


@pytest.mark.parametrize(
    "config, digest",
    [
        (SuiteConfig(seed=0, instances=2, jobs=2), SUITE_CSV_SHA256),
        (SuiteConfig(seed=0, instances=5, backend=RATIONAL, jobs=2), SUITE_RATIONAL_CSV_SHA256),
    ],
    ids=["float", "rational"],
)
def test_pooled_suite_csv_digest(tmp_path, config, digest):
    # Rows computed in worker processes must give the serial bytes.
    _, rows = run_suite(config)
    path = tmp_path / "suite.csv"
    write_rows_csv(rows, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_special_case_instances_digest():
    # The rational suite CSV has every residual at 0, so it cannot see the
    # instance values; this pins the generated special-case inputs themselves.
    parts = [
        repr(special_case_instance(kind, *special_case_inputs(kind, seed, i, backend)))
        for backend in (FLOAT64, RATIONAL)
        for seed in range(4)
        for kind in SPECIAL_KINDS
        for i in range(5)
    ]
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == SPECIAL_CASES_SHA256


def test_lemma_series_digest():
    # Lemma rows compare the series with its closed form, so the rational
    # suite CSV shows only pass/fail; this pins each generated case and the
    # full series result, diagnostics included.
    parts = [
        repr(case) + " " + repr(eval_pfq(case.upper, case.lower, case.argument))
        for seed in range(4)
        for name in LEMMA_NAMES
        for i in range(5)
        for case in (lemma_case(name, seed, i),)
    ]
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == LEMMA_SERIES_SHA256


def test_exact_rule_values_digest():
    values = []
    for rid in IDENTITY_IDS:
        for i in range(5):
            report = check_identity(exact_instance(rid, 0, i))
            values.append((rid, i, str(report.lhs), str(report.rhs)))
    assert len(values) == 85
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == EXACT_VALUES_SHA256


def eval_points():
    """64 seeded (ParameterSet, ArgumentTriple, policy) triples.

    Every fourth point is rational (sevenths, arguments +-k/40), the rest
    float (entries in [0.3, 2.5], mixed-sign arguments within 0.25).  Family
    sizes are 0-2, balanced per direction except at i % 16 == 5.  Points with
    i % 3 == 0 and all rational points get a nonpositive-integer upstairs
    entry (a float one in the float backend), in ``a`` on a share of them so
    the whole series terminates.  Points with i % 5 < 3 zero the argument
    of direction i % 5; i % 7 == 0 runs a short policy that can hit its cap.
    """
    rng = random.Random("eval_f3 golden")
    points = []
    for i in range(64):
        rational = i % 4 == 3
        if rational:
            entry = lambda: Fraction(rng.randrange(3, 18), 7)
            arg = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 40)
            cut = lambda: -rng.randrange(0, 4)
        else:
            entry = lambda: rng.uniform(0.3, 2.5)
            arg = lambda: rng.uniform(-0.25, 0.25)
            cut = lambda: -float(rng.randrange(0, 4))
        while True:
            sizes = {name: rng.choice((0, 1, 2)) for name in FAMILIES}
            if i % 16 == 5 or all(
                sum(sizes[f] for f in up) <= sum(sizes[f] for f in down) + 1
                for up, down in map(families_along, range(3))
            ):
                break
        fields = {name: tuple(entry() for _ in range(n)) for name, n in sizes.items()}
        if i % 3 == 0 or rational:
            name = "a" if i % 2 == 0 or i % 8 == 3 else rng.choice(NUMERATOR_FAMILIES)
            fields[name] = fields[name] + (cut(),)
        xs = [arg() for _ in range(3)]
        if i % 5 < 3:
            xs[i % 5] = 0 if rational else 0.0
        policy = SHORT_POLICY if i % 7 == 0 else TruncationPolicy()
        points.append((ParameterSet(**fields), ArgumentTriple(*xs), policy))
    return points


def test_eval_f3_digest():
    results = []
    for ps, args, policy in eval_points():
        r = eval_f3(ps, args, policy)
        results.append((r.value, r.shells_used, r.converged, r.terminated_exactly))
    assert {type(r[0]).__name__ for r in results} == {"float", "Fraction", "int"}
    assert any(r[3] and isinstance(r[0], float) for r in results)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == EVAL_F3_SHA256


def test_x1_series_float_values_digest():
    # Five instances per rule: with two, as in the suite digest, a reversed
    # weight-family order leaves every bit unchanged.
    values = []
    for rid in X1_SERIES_RULES:
        for i in range(5):
            report = check_identity(random_instance(rid, 0, i))
            values.append((repr(report.lhs), repr(report.rhs)))
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == X1_SERIES_SHA256


def test_derived_parameter_sets_digest():
    # The value digests see an entry only through the series values, so a
    # family whose order no later step reads can be reordered unseen; this
    # pins every rewritten parameter set itself, entry order included.
    digest = hashlib.sha256()
    for seed in range(6):
        for rid in IDENTITY_IDS:
            rule = get_rule(rid)
            for i in range(5):
                for inst in (random_instance(rid, seed, i), exact_instance(rid, seed, i)):
                    sets = [rule.rhs_params(inst)] + [rule.lhs_params(inst, k) for k in range(6)]
                    digest.update("\n".join(map(repr, sets)).encode())
    assert digest.hexdigest() == DERIVED_PARAMS_SHA256


def test_rule_table_digest():
    # The value digests see a weight only through the outer sum it enters;
    # this pins the rule listing and each weight's own bits, its cutoff and
    # its divergence verdict.
    digest = hashlib.sha256(repr(list_identities()).encode())
    for seed in range(4):
        for rid in IDENTITY_IDS:
            shape = get_rule(rid).weight
            for i in range(5):
                for inst in (random_instance(rid, seed, i), exact_instance(rid, seed, i)):
                    parts = [repr(weight_bound(shape, inst)), repr(weight_divergence(shape, inst))]
                    parts += [repr(weight_value(shape, inst, k)) for k in range(6)]
                    digest.update("\n".join(parts).encode())
    assert digest.hexdigest() == RULE_TABLE_SHA256
