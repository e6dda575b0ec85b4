"""Acceptance suite.

One test per acceptance criterion.  Each prints a single verdict line of the
form ``criterion N (<what it covers>): PASS/FAIL [detail]`` directly to the
terminal, bypassing capture, then asserts.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import pytest

import f3sum
from f3sum import (
    ArgumentTriple,
    DENOMINATOR_FAMILIES,
    FAMILIES,
    FamilyIndex,
    IDENTITY_IDS,
    IdentityInstance,
    NUMERATOR_FAMILIES,
    ParameterSet,
    TruncationPolicy,
    check_identity,
    check_special_case,
    eval_f3,
    eval_pfq,
    get_rule,
    special_params,
)
from f3sum.params import combo_degree
from f3sum.suite import (
    LEMMA_NAMES,
    exact_instance,
    lemma_case,
    random_instance,
    special_case_inputs,
)

CLI = [sys.executable, "-m", "f3sum.cli"]


def _child_env():
    """The environment for a CLI child process: ``PYTHONPATH`` starts with
    the absolute directory holding the ``f3sum`` package this process
    imported, so the child runs the same code from any working directory."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(f3sum.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (root, env.get("PYTHONPATH")) if path
    )
    return env


def _verdict(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_lemma_closed_forms(capsys):
    """Every closed-form lemma equals its exactly-summed series, 50 seeded
    rational tuples per lemma, orders up to 15."""
    t0 = perf_counter()
    failures = []
    for name in LEMMA_NAMES:
        for i in range(50):
            case = lemma_case(name, seed=101, index=i)
            res = eval_pfq(case.upper, case.lower, case.argument)
            if not (res.terminated_exactly and res.value == case.closed_value):
                failures.append((name, i))
    elapsed = perf_counter() - t0
    detail = f"{50 * len(LEMMA_NAMES)} tuples, {len(failures)} mismatches, {elapsed:.2f}s"
    _verdict(capsys, 1, "closed-form lemmas vs exact summation",
             not failures and elapsed < 5.0, detail)


def _balanced_parameter_set(rng):
    """Random float set whose per-direction numerator count never exceeds the
    matching denominator count, so shells decay monotonically."""
    kwargs = {}
    for up, down in zip(NUMERATOR_FAMILIES, DENOMINATOR_FAMILIES):
        n = rng.randint(0, 1)
        kwargs[up] = tuple(rng.uniform(0.3, 2.3) for _ in range(n))
        kwargs[down] = tuple(
            rng.uniform(0.3, 2.3) for _ in range(n + rng.randint(0, 1))
        )
    return ParameterSet(**kwargs)


def _naive_f3_tabled(ps, x, degree):
    """Direct triple loop with per-family rising-factorial tables."""
    tables = {}
    for name in FAMILIES:
        for v in ps.family(name):
            if v not in tables:
                row = [1.0]
                for j in range(3 * degree):
                    row.append(row[-1] * (v + j))
                tables[v] = row
    fact = [1.0]
    for j in range(1, degree + 1):
        fact.append(fact[-1] * j)
    powers = [[xi**m for m in range(degree + 1)] for xi in x]
    num_families = [(n, ps.family(n)) for n in NUMERATOR_FAMILIES if ps.family(n)]
    den_families = [(n, ps.family(n)) for n in DENOMINATOR_FAMILIES if ps.family(n)]
    total = 0.0
    for m1 in range(degree + 1):
        for m2 in range(degree + 1 - m1):
            for m3 in range(degree + 1 - m1 - m2):
                num = 1.0
                for name, values in num_families:
                    order = combo_degree(name, m1, m2, m3)
                    for v in values:
                        num *= tables[v][order]
                den = fact[m1] * fact[m2] * fact[m3]
                for name, values in den_families:
                    order = combo_degree(name, m1, m2, m3)
                    for v in values:
                        den *= tables[v][order]
                total += (
                    num / den * powers[0][m1] * powers[1][m2] * powers[2][m3]
                )
    return total


def test_criterion_2_engine_vs_naive_triple_loop(capsys):
    """Shell engine against an independent full triple loop to total degree
    40, ten seeded balanced parameter sets, arguments within 0.05."""
    DEGREE = 40
    rng = random.Random(777)
    policy = TruncationPolicy(tol=1e-300, max_total_degree=DEGREE, stall_window=3)
    t0 = perf_counter()
    worst = 0.0
    lattice_ok = True
    for _ in range(10):
        ps = _balanced_parameter_set(rng)
        x = tuple(rng.uniform(-0.05, 0.05) for _ in range(3))
        res = eval_f3(ps, ArgumentTriple(*x), policy)
        # the unreachable tolerance forces every shell through degree 40,
        # making the engine's lattice identical to the loop's
        lattice_ok = lattice_ok and res.shells_used == DEGREE + 1
        oracle = _naive_f3_tabled(ps, x, DEGREE)
        rel = abs(res.value - oracle) / max(abs(oracle), 1e-300)
        worst = max(worst, rel)
    elapsed = perf_counter() - t0
    ok = lattice_ok and worst < 1e-12 and elapsed < 10.0
    detail = f"10 sets, worst rel {worst:.2e}, full lattice {lattice_ok}, {elapsed:.2f}s"
    _verdict(capsys, 2, "shell engine vs naive triple loop", ok, detail)


def _collapse_instance(rid):
    dense = dict(
        a=(1.1,), b=(0.7,), bp=(0.9,), bpp=(1.3,),
        c=(0.8,), cp=(1.7,), cpp=(0.6,),
        e=(1.9,), g=(1.2,), gp=(0.5,), gpp=(2.1,),
        h=(1.4,), hp=(0.95,), hpp=(1.6,),
    )
    rule = get_rule(rid)
    args = ArgumentTriple(0.03, -0.02, 0.025)
    if rid in ("T9c", "T10c"):
        args = ArgumentTriple(0.0, -0.02, 0.025)
    idx = None
    if rule.indexed_family is not None:
        idx = FamilyIndex(rule.indexed_family, 1)
    scalars = {name: 0.0 for name in rule.scalar_names}
    return IdentityInstance(rid, ParameterSet(**dense), args, idx=idx, scalars=scalars)


def test_criterion_3_identity_checks(capsys):
    """All seventeen resummation rules: 25 seeded float instances each below
    1e-8 relative residual, plus the zero-scalar collapse of every rule below
    1e-13."""
    t0 = perf_counter()
    failures = []
    worst = 0.0
    for rid in IDENTITY_IDS:
        for i in range(25):
            rep = check_identity(random_instance(rid, seed=202, index=i))
            if not rep.passed or rep.residual >= 1e-8:
                failures.append((rid, i, rep.reason))
            else:
                worst = max(worst, rep.residual)
    collapse_policy = TruncationPolicy(tol=1e-13, max_total_degree=34, stall_window=3)
    for rid in IDENTITY_IDS:
        rep = check_identity(
            _collapse_instance(rid), policy=collapse_policy, residual_tol=1e-13
        )
        if not rep.passed:
            failures.append((rid, "collapse", rep.reason))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < 300.0
    detail = (
        f"{25 * len(IDENTITY_IDS)} instances + {len(IDENTITY_IDS)} collapses, "
        f"{len(failures)} failures, worst residual {worst:.2e}, {elapsed:.1f}s"
    )
    _verdict(capsys, 3, "seventeen resummation rules", ok, detail)


def _rising(x, k):
    out = 1.0
    for j in range(k):
        out *= x + j
    return out


def _classical_oracle(kind, values, x, degree=24):
    x1, x2, x3 = x
    if kind == "fa3":
        a, b1, b2, b3, c1, c2, c3 = values

        def term(m1, m2, m3):
            return (
                _rising(a, m1 + m2 + m3)
                * _rising(b1, m1) * _rising(b2, m2) * _rising(b3, m3)
                / (_rising(c1, m1) * _rising(c2, m2) * _rising(c3, m3))
            )
    elif kind == "fd3":
        a, b1, b2, b3, c = values

        def term(m1, m2, m3):
            return (
                _rising(a, m1 + m2 + m3)
                * _rising(b1, m1) * _rising(b2, m2) * _rising(b3, m3)
                / _rising(c, m1 + m2 + m3)
            )
    else:
        a, b1, b2, c1, c2 = values

        def term(m1, m2, m3):
            return (
                _rising(a, m1 + m3) * _rising(b1, m1 + m2) * _rising(b2, m2 + m3)
                / (_rising(c1, m1) * _rising(c2, m2 + m3))
            )

    total = 0.0
    for m1 in range(degree + 1):
        for m2 in range(degree + 1 - m1):
            for m3 in range(degree + 1 - m1 - m2):
                total += (
                    term(m1, m2, m3)
                    * x1**m1 * x2**m2 * x3**m3
                    / (math.factorial(m1) * math.factorial(m2) * math.factorial(m3))
                )
    return total


_ARITY = {"fa3": 7, "fd3": 5, "ha": 5}


def test_criterion_4_classical_special_cases(capsys):
    """Each classical layout reproduces its own series definition (local
    oracle, 1e-12) and satisfies its argument-shift check (1e-8), 20 seeded
    tuples per kind."""
    t0 = perf_counter()
    tight = TruncationPolicy(tol=1e-14, max_total_degree=32, stall_window=3)
    failures = []
    for kind, arity in _ARITY.items():
        rng = random.Random(f"acc4:{kind}")
        for i in range(20):
            values = tuple(rng.uniform(0.4, 2.2) for _ in range(arity))
            x = tuple(rng.uniform(-0.04, 0.04) for _ in range(3))
            ps = special_params(kind, *values)
            res = eval_f3(ps, ArgumentTriple(*x), tight)
            oracle = _classical_oracle(kind, values, x)
            rel = abs(res.value - oracle) / max(abs(oracle), 1e-300)
            if not res.converged or rel >= 1e-12:
                failures.append((kind, i, "mapping", rel))
            ps2, args2, t2 = special_case_inputs(kind, seed=404, index=i)
            rep = check_special_case(kind, ps2, args2, t2)
            if not rep.passed or rep.residual >= 1e-8:
                failures.append((kind, i, "shift", rep.reason))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = f"3 kinds x 20 tuples x 2 checks, {len(failures)} failures, {elapsed:.1f}s"
    _verdict(capsys, 4, "classical special-case layouts", ok, detail)


def test_criterion_5_exact_rational_zero_residual(capsys):
    """Terminating rational instances of every rule close with residual
    exactly zero: ten per rule at seed 505 (the argument-rescale rule T9c
    among them), and five per rule at each of seeds 1-9, so every recipe
    row is pinned beyond the golden seed 0."""
    cases = [(505, i) for i in range(10)] + [(s, i) for s in range(1, 10) for i in range(5)]
    t0 = perf_counter()
    failures = []
    for rid, (seed, i) in itertools.product(IDENTITY_IDS, cases):
        inst = exact_instance(rid, seed=seed, index=i)
        rep = check_identity(inst)
        exact = (
            rep.passed
            and rep.residual == 0
            and rep.lhs_diag.terminated_exactly
            and rep.rhs_diag.terminated_exactly
            and isinstance(rep.lhs, Fraction)
        )
        if not exact:
            failures.append((rid, seed, i, rep.reason, rep.residual))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < 30.0
    count = len(IDENTITY_IDS) * len(cases)
    detail = f"{count} instances, {len(failures)} inexact, {elapsed:.2f}s"
    _verdict(capsys, 5, "terminating rational instances are exact", ok, detail)


def test_criterion_6_suite_csv_determinism(capsys, tmp_path):
    """The suite command writes byte-identical CSV across repeated runs and
    across worker counts."""
    t0 = perf_counter()

    def run(name, jobs):
        proc = subprocess.run(
            CLI + [
                "suite", "--seed", "42", "--instances", "2",
                "--jobs", jobs, "--out", str(tmp_path / name),
            ],
            capture_output=True, text=True, cwd=str(tmp_path),
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout), (tmp_path / name).read_bytes()

    sum_a, csv_a = run("a.csv", "1")
    sum_b, csv_b = run("b.csv", "1")
    sum_j, csv_j = run("j.csv", "4")
    elapsed = perf_counter() - t0
    repeat_ok = csv_a == csv_b
    jobs_ok = csv_a == csv_j
    all_pass = sum_a["all_pass"] and sum_j["all_pass"]
    ok = repeat_ok and jobs_ok and all_pass
    detail = (
        f"repeat identical {repeat_ok}, jobs 1 vs 4 identical {jobs_ok}, "
        f"all rows pass {all_pass}, {elapsed:.1f}s"
    )
    _verdict(capsys, 6, "suite CSV determinism", ok, detail)
