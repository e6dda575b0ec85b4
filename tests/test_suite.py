"""Tests for the suite's backend handling."""

import pytest

from f3sum import InvalidInputError, SuiteConfig, run_suite, special_case_inputs

UNKNOWN_BACKENDS = ("float", "Rational", "")


@pytest.mark.parametrize("backend", UNKNOWN_BACKENDS)
def test_identity_rows_reject_unknown_backend(backend):
    # Only "rational" used to pick exact rule instances, so any other name
    # silently ran the float ones.
    with pytest.raises(InvalidInputError, match=f"unknown backend {backend!r}"):
        run_suite(SuiteConfig(backend=backend, instances=1))


@pytest.mark.parametrize("backend", UNKNOWN_BACKENDS)
def test_special_case_inputs_reject_unknown_backend(backend):
    # Only "float64" used to pick float draws, so "float" returned sevenths.
    with pytest.raises(InvalidInputError, match=f"unknown backend {backend!r}"):
        special_case_inputs("fa3", 0, 0, backend)
