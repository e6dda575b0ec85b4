"""Tests for the suite's backend handling, its worker processes, and the
fixed work each row pays."""

import concurrent.futures
import dataclasses
import inspect
import multiprocessing
from fractions import Fraction

import pytest

from f3sum import (
    FLOAT64,
    RATIONAL,
    ArgumentTriple,
    InvalidInputError,
    ParameterSet,
    SuiteConfig,
    eval_f3,
    eval_pfq,
    identities,
    lemma_case,
    params,
    run_suite,
    special,
    special_case_inputs,
    suite,
)
from f3sum.suite import exact_instance

UNKNOWN_BACKENDS = ("float", "Rational", "")


@pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
@pytest.mark.parametrize("backend", UNKNOWN_BACKENDS)
def test_identity_rows_reject_unknown_backend(backend, jobs):
    # Only "rational" used to pick exact rule instances, so any other name
    # silently ran the float ones.  Raised in a worker process, the error
    # must reach the caller with its type and message, and take no worker
    # with it.
    with pytest.raises(InvalidInputError) as info:
        run_suite(SuiteConfig(backend=backend, instances=1, jobs=jobs))
    assert type(info.value) is InvalidInputError
    assert str(info.value) == (
        f"unknown backend {backend!r}; expected {FLOAT64!r} or {RATIONAL!r}"
    )
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("field, value, message", [
    ("instances", 1.5, "instances must be an int, got 1.5"),
    ("instances", True, "instances must be an int, got True"),
    ("instances", 0, "instances must be >= 1"),
    ("jobs", 1.5, "jobs must be an int, got 1.5"),
    ("jobs", True, "jobs must be an int, got True"),
    ("jobs", 0, "jobs must be >= 1"),
], ids=["instances-float", "instances-bool", "instances-zero",
        "jobs-float", "jobs-bool", "jobs-zero"])
def test_config_refuses_a_count_that_is_not_a_positive_int(field, value, message):
    # Only the CLI checked these: a float reached range() as a bare
    # TypeError, True ran as 1, instances=0 ran no row and jobs=0 serially.
    with pytest.raises(InvalidInputError) as info:
        SuiteConfig(**{field: value})
    assert str(info.value) == message


def test_pooled_run_leaves_no_worker_running():
    _, rows = run_suite(SuiteConfig(instances=1, backend=RATIONAL, jobs=2))
    assert len(rows) == 26
    assert multiprocessing.active_children() == []


def test_pool_asks_for_no_more_workers_than_rows(monkeypatch):
    # A fork pool starts every worker it is asked for when it opens, so a
    # --jobs far above the row count used to fork that many processes.  The
    # fake pool records the request and maps serially; it starts none.
    asked = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    _, rows = run_suite(SuiteConfig(instances=1, jobs=10_000))
    assert asked == [26]
    assert len(rows) == 26


@pytest.mark.parametrize("backend", UNKNOWN_BACKENDS)
def test_special_case_inputs_reject_unknown_backend(backend):
    # Only "float64" used to pick float draws, so "float" returned sevenths.
    with pytest.raises(InvalidInputError, match=f"unknown backend {backend!r}"):
        special_case_inputs("fa3", 0, 0, backend)


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_lemma_row_sums_its_series_once(monkeypatch):
    # The draw already sums the series to validate it; the row reuses it.
    calls = _count_calls(monkeypatch, suite, "eval_pfq")
    summary, rows = run_suite(SuiteConfig(seed=0, instances=2, backend=RATIONAL))
    assert summary["sections"]["lemmas"] == {"rows": 12, "passed": 12}
    assert len(calls) == 12


def test_lemma_case_carries_its_series_outside_repr_and_equality():
    case = lemma_case("saalschutz_3f2", 3, 1)
    assert case.series == eval_pfq(case.upper, case.lower, case.argument)
    assert "series" not in repr(case)
    assert case == dataclasses.replace(case, series=None)
    assert hash(case) == hash(dataclasses.replace(case, series=None))


def test_each_parameter_set_is_classified_once(monkeypatch):
    # bench/tracing.py counts parameter sets by wrapping
    # params.classify_backend, so each set built calls it exactly once, and
    # nothing else does: not eval_f3, not the backend properties.  A set is
    # built by the constructor (through __post_init__) or by derived.
    built = []
    post_init = ParameterSet.__post_init__
    derived = ParameterSet.derived

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_derived(self, **families):
        ps = derived(self, **families)
        built.append(ps)
        return ps

    monkeypatch.setattr(ParameterSet, "__post_init__", counted_post_init)
    monkeypatch.setattr(ParameterSet, "derived", counted_derived)
    calls = _count_calls(monkeypatch, params, "classify_backend")

    ps = ParameterSet(a=(Fraction(1, 3),), c=(-2,), h=(Fraction(9, 7),))
    shifted = dataclasses.replace(ps, c=(-1,))
    assert len(calls) == len(built) == 2
    assert ps.representatives == shifted.representatives == (Fraction(1, 3),)
    eval_f3(shifted, ArgumentTriple(Fraction(1, 4), 0, 0))
    inst = exact_instance("T1a", 0, 0)
    assert inst.backend == RATIONAL
    assert len(calls) == len(built) == 3
    back = shifted.derived(c=(-2,))
    assert back == ps
    assert len(calls) == len(built) == 4
    assert back.representatives == (Fraction(1, 3),)

    run_suite(SuiteConfig(seed=1, instances=1, backend=RATIONAL))
    run_suite(SuiteConfig(seed=1, instances=1))
    assert len(calls) == len(built) > 3


# Module attributes bench/tracing.py wraps or calls, with their parameters.
LAYER_HOOKS = {
    (identities, "eval_f3"): ["ps", "args", "policy"],
    (identities, "weight_value"): ["shape", "inst", "k"],
    (suite, "eval_pfq"): ["upper", "lower", "x", "policy"],
    (suite, "check_identity"): ["inst", "policy", "residual_tol", "outer_cap"],
    (special, "check_identity"): ["inst", "policy", "residual_tol", "outer_cap"],
    (suite, "check_special_case"): [
        "kind", "ps", "args", "t", "policy", "residual_tol", "outer_cap",
    ],
    (suite, "random_instance"): ["identity_id", "seed", "index"],
    (suite, "exact_instance"): ["identity_id", "seed", "index"],
    (suite, "special_case_inputs"): ["kind", "seed", "index", "backend"],
    (suite, "lemma_case"): ["name", "seed", "index"],
    (params, "classify_backend"): ["values"],
    (params, "numerator_bounds"): ["ps"],
    (params, "in_support"): ["bounds", "m1", "m2", "m3"],
}


@pytest.mark.parametrize("module, name", list(LAYER_HOOKS), ids=lambda v: getattr(v, "__name__", v))
def test_layer_hooks_keep_their_names_and_signatures(module, name):
    assert list(inspect.signature(getattr(module, name)).parameters) == LAYER_HOOKS[module, name]


def test_suite_calls_through_the_layer_hooks(monkeypatch):
    # A wrapper on each module attribute sees the calls of a rational and a
    # float pass: random_instance draws only float rows, exact_instance only
    # rational ones.
    counts = {
        (module, name): _count_calls(monkeypatch, module, name)
        for module, name in LAYER_HOOKS
        if name not in ("numerator_bounds", "in_support")
    }
    run_suite(SuiteConfig(seed=0, instances=1, backend=RATIONAL))
    run_suite(SuiteConfig(seed=0, instances=1, backend=FLOAT64))
    assert all(counts.values()), {name: len(c) for (_, name), c in counts.items()}
