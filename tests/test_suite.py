"""Tests for the suite's backend handling and its worker processes."""

import multiprocessing

import pytest

from f3sum import FLOAT64, RATIONAL, InvalidInputError, SuiteConfig, run_suite, special_case_inputs

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


def test_pooled_run_leaves_no_worker_running():
    _, rows = run_suite(SuiteConfig(instances=1, backend=RATIONAL, jobs=2))
    assert len(rows) == 26
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("backend", UNKNOWN_BACKENDS)
def test_special_case_inputs_reject_unknown_backend(backend):
    # Only "float64" used to pick float draws, so "float" returned sevenths.
    with pytest.raises(InvalidInputError, match=f"unknown backend {backend!r}"):
        special_case_inputs("fa3", 0, 0, backend)
