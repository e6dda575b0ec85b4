"""Golden outputs: digests of suite bytes and exact rule values.

The other determinism tests compare runs of the same code with each other;
these pin the outputs themselves, so a refactor that reorders a float
product or a table and changes a single bit fails here.
"""

import hashlib

from f3sum import IDENTITY_IDS, SuiteConfig, check_identity, run_suite, write_rows_csv
from f3sum.suite import exact_instance

SUITE_CSV_SHA256 = "3d75b7fbebecee902dbd7b13b1ba55eef430a795105288022b52017ac62e9ade"
EXACT_VALUES_SHA256 = "4100da0ab6daa0d5b30d9ef4e810fbfed0bcb39198f65b0126d27074110bd463"


def test_float_suite_csv_digest(tmp_path):
    _, rows = run_suite(SuiteConfig(seed=0, instances=2))
    path = tmp_path / "suite.csv"
    write_rows_csv(rows, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_CSV_SHA256


def test_exact_rule_values_digest():
    values = []
    for rid in IDENTITY_IDS:
        for i in range(5):
            report = check_identity(exact_instance(rid, 0, i))
            values.append((rid, i, str(report.lhs), str(report.rhs)))
    assert len(values) == 85
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == EXACT_VALUES_SHA256
