"""The benchmark's own checks.

    python3 bench/selfcheck.py

1. A different seed changes every workload's inputs but keeps its op counts.
2. The oracles reject perturbed values (handed to the checkers directly; the
   program is left untouched).
3. Every metric a run prints, traced or not, is named in BENCHMARK.json, and
   every per-layer metric has an entry in layers.json.
4. A longer run repeats ops but reports the same attempted and failed counts.
5. Without the package sources the run fails with no result line.

Exits non-zero on the first failed check.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
from run import BENCH, OUT, ROOT, SRC

sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import oracle  # noqa: E402


def check(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok: {message}")


def seeds_change_inputs(f3sum):
    for workload in ("eval-float", "eval-rational"):
        a, b = (inputs.eval_pool(f3sum, workload, seed) for seed in (0, 1))
        check(len(a) == len(b) and repr(a) != repr(b),
              f"{workload}: seeds 0 and 1 give different pools of {len(a)} ops")
    for workload in ("suite-float", "suite-rational"):
        a, b = (inputs.suite_config(f3sum, workload, seed, jobs=1) for seed in (0, 1))
        rows = [len(f3sum.run_suite(config)[1]) for config in (a, b)]
        check(
            rows[0] == rows[1] and run.suite_digest(f3sum, a) != run.suite_digest(f3sum, b),
            f"{workload}: seeds 0 and 1 give different instances and {rows[0]} rows each",
        )


def oracle_rejects_perturbed(f3sum):
    policy = inputs.eval_policy(f3sum)
    for workload, nudge in (("eval-float", lambda v: v * (1 + 1e-9)),
                            ("eval-rational", lambda v: v + Fraction(1, 10**40))):
        ps, args = inputs.eval_pool(f3sum, workload, 0)[0]
        result = f3sum.eval_f3(ps, args, policy)
        reference = oracle.naive_f3(ps, args, result.shells_used)
        check(oracle.check_eval_value(result.value, reference)[0],
              f"{workload}: the engine value passes the naive oracle")
        check(not oracle.check_eval_value(nudge(result.value), reference)[0],
              f"{workload}: a perturbed value fails the naive oracle")
    row = {"pass": True, "residual": 0.0, "converged_lhs": True, "converged_rhs": True}
    check(oracle.row_verdict(row, exact=True) == "ok",
          "a passing rational row with residual 0 is ok")
    check(oracle.row_verdict(dict(row, residual=1e-300), exact=True) == "wrong",
          "a rational row with a nonzero residual is wrong")
    check(oracle.row_verdict(dict(row, **{"pass": False}), exact=False) == "wrong",
          "a float row that converged on both sides and did not pass is wrong")
    for exact in (False, True):
        check(oracle.row_verdict(dict(row, **{"pass": False, "converged_rhs": False}),
                                 exact=exact) == "failed",
              f"a row that did not converge is a failed op (exact={exact})")


def bench(workload, seconds, trace=0):
    """(exit code, last-line result) of one run on seed 0."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT),
    )
    return out.returncode, json.loads(out.stdout.splitlines()[-1])


def printed_names_are_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    per_layer = {m["name"] for m in spec["per_layer"]}
    check(set(layers) == per_layer, "layers.json maps every per-layer metric")
    for trace in (0, 1):
        declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        for workload in inputs.WORKLOADS:
            code, result = bench(workload, 1, trace)
            printed = set(result["metrics"])
            check(code == 0 and result["correct"] and printed == declared,
                  f"{workload} --trace {trace}: correct, and prints exactly the "
                  f"{len(declared)} declared metrics")


def counts_ignore_run_length():
    short, long = (bench("suite-rational", seconds)[1] for seconds in (1, 15))
    check((short["attempted"], short["failed"]) == (long["attempted"], long["failed"]),
          f"suite-rational: 1 s and 15 s runs both count {short['attempted']} ops "
          f"and {short['failed']} failed")


def fails_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "eval-float", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=str(bare), timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and not out.stdout.strip(),
          f"without src/ the run exits {out.returncode} and prints no result")


def main():
    OUT.mkdir(exist_ok=True)
    f3sum = run.import_f3sum()
    seeds_change_inputs(f3sum)
    oracle_rejects_perturbed(f3sum)
    printed_names_are_declared()
    counts_ignore_run_length()
    fails_without_sources()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
