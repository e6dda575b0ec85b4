"""End-to-end tests of the command line interface via subprocess."""

import inspect
import json
import os
import subprocess
import sys

import pytest

import f3sum
from f3sum import SuiteConfig, TruncationPolicy, check_identity, cli
from f3sum.identities import derived_policy

CLI = [sys.executable, "-m", "f3sum.cli"]

T1A_INSTANCE = {
    "id": "T1a",
    "params": {"a": [1.2], "h": [1.7]},
    "args": [0.04, -0.03, 0.02],
    "index": {"family": "a", "i": 1},
    "scalars": {"t": 0.15},
}


def strict_json(text):
    """Parse ``text`` as strict JSON: a bare NaN, Infinity or -Infinity,
    which Python's own reader accepts, fails the test."""
    def refuse(constant):
        raise AssertionError(f"bare {constant} in JSON output")

    return json.loads(text, parse_constant=refuse)


OVERFLOWING_PARAMS = {"a": [1e300], "e": [1e-300]}


def child_env():
    """The environment for a CLI child process: ``PYTHONPATH`` starts with
    the absolute directory holding the ``f3sum`` package this process
    imported, so the child runs the same code from any working directory."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(f3sum.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (root, env.get("PYTHONPATH")) if path
    )
    return env


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd,
        env=child_env(),
    )


class TestEval:
    def test_converged_float(self):
        proc = run_cli(
            "eval", "--params", '{"a": [1.0]}', "--args", "[0.1, 0.1, 0.1]"
        )
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["converged"] is True
        assert out["value"] == pytest.approx(1 / 0.7, rel=1e-12)

    def test_rational_backend(self):
        proc = run_cli(
            "eval",
            "--params", '{"c": [-2]}',
            "--args", '["1/2", 0, 0]',
            "--backend", "rational",
        )
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["value"] == "1/4"
        assert out["terminated_exactly"] is True

    def test_eval_from_file(self, tmp_path):
        payload = {"params": {"a": [2.0]}, "args": [0.05, 0.05, -0.02]}
        f = tmp_path / "point.json"
        f.write_text(json.dumps(payload))
        proc = run_cli("eval", "--file", str(f))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["converged"] is True

    def test_divergent_exit_code(self):
        proc = run_cli("eval", "--params", '{"a": [1.0]}', "--args", "[9, 9, 9]")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["converged"] is False

    @pytest.mark.parametrize(
        "backend, entry, x",
        [("float64", 1.5, 1e-6), ("rational", "3/2", "1/1000000")],
    )
    def test_zero_radius_exit_code(self, backend, entry, x):
        # 3F0 diverges at every x != 0, however small its first shells are
        proc = run_cli(
            "eval",
            "--params", json.dumps({"c": [entry] * 3}),
            "--args", json.dumps([x, 0, 0]),
            "--backend", backend,
        )
        assert proc.returncode == 2
        out = json.loads(proc.stdout)
        assert out["converged"] is False
        assert out["shells_used"] == 6

    def test_overflow_prints_strict_json(self):
        # The shells overflow to inf: the value is printed as the string
        # "inf", not as a bare Infinity a strict JSON reader refuses.
        proc = run_cli(
            "eval",
            "--params", json.dumps(OVERFLOWING_PARAMS),
            "--args", "[0.9, 0.9, 0.9]",
        )
        assert proc.returncode == 2
        out = strict_json(proc.stdout)
        assert out["value"] == "inf"
        assert out["last_shell_magnitude"] == "inf"
        assert out["converged"] is False

    def test_unknown_family_exit_code(self):
        proc = run_cli("eval", "--params", '{"zz": [1]}', "--args", "[0, 0, 0]")
        assert proc.returncode == 1
        assert "zz" in proc.stderr

    def test_malformed_json(self):
        proc = run_cli("eval", "--params", "{not json", "--args", "[0, 0, 0]")
        assert proc.returncode == 1
        assert "error: invalid JSON for --params" in proc.stderr

    def test_float_param_in_rational_mode(self):
        # 0.1 as decimal text must mean 1/10 exactly
        proc = run_cli(
            "eval",
            "--params", '{"c": [-1], "h": ["1/7"]}',
            "--args", '["0.1", 0, 0]',
            "--backend", "rational",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "3/10"


class TestCheck:
    def test_pass(self, tmp_path):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(T1A_INSTANCE))
        proc = run_cli("check", "--file", str(f))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["pass"] is True
        assert out["residual"] <= 1e-8

    def test_inline_json(self):
        proc = run_cli("check", "--json", json.dumps(T1A_INSTANCE))
        assert proc.returncode == 0

    def test_file_and_json_conflict(self, tmp_path):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(T1A_INSTANCE))
        proc = run_cli("check", "--file", str(f), "--json", "{}")
        assert proc.returncode == 1
        assert "error: check needs exactly one of --file or --json" in proc.stderr

    def test_guard_exit_code(self):
        inst = dict(T1A_INSTANCE, scalars={"t": 2.5})
        proc = run_cli("check", "--json", json.dumps(inst))
        assert proc.returncode == 2
        out = json.loads(proc.stdout)
        assert out["pass"] is False
        assert out["reason"]

    def test_converged_failure_exit_code(self):
        # a tolerance below the float rounding floor: both sides converge,
        # equality at that precision is unattainable
        proc = run_cli("check", "--json", json.dumps(T1A_INSTANCE), "--tol", "1e-16")
        assert proc.returncode == 3
        out = json.loads(proc.stdout)
        assert out["converged_lhs"] and out["converged_rhs"]
        assert not out["pass"]

    def test_overflow_prints_strict_json(self):
        inst = {
            "id": "T2x1",
            "params": OVERFLOWING_PARAMS,
            "args": [0.9, 0.9, 0.9],
            "scalars": {"t": 0.01},
        }
        proc = run_cli("check", "--json", json.dumps(inst))
        assert proc.returncode == 2
        out = strict_json(proc.stdout)
        assert (out["lhs"], out["rhs"], out["residual"]) == ("inf", "inf", "nan")
        assert out["pass"] is False

    def test_unknown_identity(self):
        proc = run_cli("check", "--json", '{"id": "T0", "params": {}, "args": [0,0,0]}')
        assert proc.returncode == 1
        assert "error: unknown identity id 'T0'" in proc.stderr

    def test_rational_exact(self):
        inst = {
            "id": "T1c",
            "params": {
                "c": [-3, "2/7"], "cp": [-1], "cpp": [-1], "e": ["9/7"],
            },
            "args": ["1/3", "-1/4", "1/5"],
            "index": {"family": "c", "i": 1},
            "scalars": {"t": "2/7"},
        }
        proc = run_cli("check", "--json", json.dumps(inst), "--backend", "rational")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["residual"] == 0


def _instance_json(**changes):
    return json.dumps(dict(T1A_INSTANCE, **changes))


class TestInputErrors:
    # Malformed input is a typed error naming its field, reported on one
    # "error: ..." line with exit 1, never a traceback.
    @pytest.mark.parametrize("argv, message", [
        (["eval", "--params", "[1]", "--args", "[0.1, 0, 0]"],
         "error: params must be an object of family name -> list of scalars, got [1]"),
        (["eval", "--params", "{}", "--args", "5"],
         "error: args must be a list of exactly three scalars, got 5"),
        (["check", "--json", _instance_json(scalars=[1])],
         'error: "scalars" must be an object, got [1]'),
        (["check", "--json", _instance_json(scalars=[])],
         'error: "scalars" must be an object, got []'),
        (["check", "--json", _instance_json(args=5)],
         "error: args must be a list of exactly three scalars, got 5"),
        (["check", "--json", _instance_json(index={"i": 1})],
         'error: "index" must be an object with a "family" key, got {\'i\': 1}'),
        (["check", "--json", _instance_json(index=[1])],
         'error: "index" must be an object with a "family" key, got [1]'),
        (["check", "--json", _instance_json(id=5)],
         'error: "id" must be a string, got 5'),
        (["check", "--json", _instance_json(index={"family": "a", "i": "x"})],
         'error: "index" field "i" must be an int, got \'x\''),
        (["check", "--json", _instance_json(index={"family": "a", "i": 1.5})],
         'error: "index" field "i" must be an int, got 1.5'),
        (["eval", "--params", '{"a": [1.5]}', "--args", "[Infinity, 0, 0]"],
         "error: not a finite number: inf"),
        (["check", "--tol", "-1", "--json", _instance_json()],
         "error: residual_tol must be >= 0, got -1.0"),
        # An infinite tolerance used to reach the exact stall test and die
        # with an OverflowError traceback (eval) or a failed report (check).
        (["eval", "--params", '{"a": [1.5]}', "--args", "[0.1, 0, 0]", "--tol", "inf"],
         "error: tol must be positive and finite, got inf"),
        (["eval", "--params", '{"a": [1.5]}', "--args", "[0.1, 0, 0]", "--tol", "1e400"],
         "error: tol must be positive and finite, got inf"),
        (["check", "--tol", "inf", "--json", _instance_json()],
         "error: tol must be positive and finite, got inf"),
        # Two downstairs factors of 1e-200 multiply to 0.0 in float64; the
        # step used to die with a ZeroDivisionError traceback.
        (["eval", "--params", '{"a": [1.0], "h": [1e-200, 1e-200]}', "--args", "[0.1, 0, 0]"],
         "error: the downstairs product underflows float64 at Pochhammer order 1; "
         "--backend rational sums this input"),
    ], ids=[
        "params-list", "args-int", "scalars-list", "scalars-empty-list", "instance-args-int",
        "index-no-family", "index-list", "id-int", "index-i-text", "index-i-float",
        "args-infinity", "negative-tol", "infinite-tol", "overflowing-tol",
        "infinite-residual-tol", "underflowing-denominator",
    ])
    def test_reported_as_input_error(self, argv, message):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert proc.stderr.strip() == message

    @pytest.mark.parametrize("cap", ["-3", "0"])
    @pytest.mark.parametrize("command", ["check", "suite"])
    def test_outer_cap_below_one(self, command, cap, tmp_path):
        # Checked before any work: a cap below 1 used to reach the outer
        # policy and come back as a failed report with exit 2.
        out = tmp_path / "r.csv"
        extra = ["--json", json.dumps(T1A_INSTANCE)] if command == "check" else ["--out", str(out)]
        proc = run_cli(command, "--outer-cap", cap, *extra, cwd=str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.strip() == "error: --outer-cap must be >= 1"
        assert proc.stdout == ""
        assert not out.exists()

    def test_internal_error_propagates(self, monkeypatch):
        # Only input errors become exit 1; a bug inside a subcommand must
        # surface as itself.
        def broken():
            raise KeyError("internal bug")

        monkeypatch.setattr(cli, "list_identities", broken)
        with pytest.raises(KeyError, match="internal bug"):
            cli.main(["list"])


class TestList:
    def test_seventeen_rules(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)
        assert len(rows) == 17
        assert rows[0]["id"] == "T1a"
        assert rows[-1]["id"] == "T10c"


class TestSuite:
    def test_run_and_summary(self, tmp_path):
        proc = run_cli(
            "suite", "--seed", "7", "--instances", "1",
            "--out", str(tmp_path / "rows.csv"),
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["all_pass"] is True
        assert summary["failed"] == 0
        assert summary["seed"] == 7
        header = (tmp_path / "rows.csv").read_text().splitlines()[0]
        assert header == "identity_id,instance_index,residual,converged_lhs,converged_rhs,pass"

    def test_csv_deterministic_across_runs(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            proc = run_cli(
                "suite", "--seed", "3", "--instances", "1",
                "--out", str(tmp_path / name),
                cwd=str(tmp_path),
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_deterministic_across_jobs(self, tmp_path):
        for name, jobs in (("j1.csv", "1"), ("j4.csv", "4")):
            proc = run_cli(
                "suite", "--seed", "3", "--instances", "1",
                "--jobs", jobs,
                "--out", str(tmp_path / name),
                cwd=str(tmp_path),
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j4.csv").read_bytes()

    def test_rational_backend(self, tmp_path):
        proc = run_cli(
            "suite", "--seed", "11", "--instances", "1",
            "--backend", "rational",
            "--out", str(tmp_path / "r.csv"),
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["backend"] == "rational"
        assert summary["all_pass"] is True

    def test_bad_instance_count(self, tmp_path):
        proc = run_cli("suite", "--instances", "0", cwd=str(tmp_path))
        assert proc.returncode == 1
        assert "error: --instances must be >= 1" in proc.stderr


def test_parser_defaults_are_the_library_defaults():
    # Each default is defined once, in the library; the flags read it.
    parser = cli.build_parser()
    policy = TruncationPolicy()
    ns = parser.parse_args(["eval"])
    assert (ns.tol, ns.max_degree, ns.stall_window) == (
        policy.tol, policy.max_total_degree, policy.stall_window
    )
    check = inspect.signature(check_identity).parameters
    ns = parser.parse_args(["check"])
    assert (ns.tol, ns.outer_cap) == (check["residual_tol"].default, check["outer_cap"].default)
    assert derived_policy(ns.tol, ns.max_degree, ns.stall_window) == derived_policy(ns.tol)
    config = SuiteConfig()
    ns = parser.parse_args(["suite"])
    assert (ns.seed, ns.instances, ns.jobs, ns.tol, ns.outer_cap) == (
        config.seed, config.instances, config.jobs, config.residual_tol, config.outer_cap
    )
    assert derived_policy(ns.tol, ns.max_degree, ns.stall_window) == derived_policy(ns.tol)


class TestArgparseErrors:
    def test_no_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 1
        assert "error: the following arguments are required: command" in proc.stderr

    def test_unknown_flag(self):
        proc = run_cli("list", "--frobnicate")
        assert proc.returncode == 1
        assert "error: unrecognized arguments:" in proc.stderr
