"""Command line front end.

Subcommands:

* ``eval``   evaluate the triple series for a parameter set and arguments,
* ``check``  verify one resummation-rule instance and report the residual,
* ``suite``  run the seeded verification suite and write its CSV,
* ``list``   enumerate the known rules.

Exit codes: 0 success (converged evaluation, passing check or suite),
1 malformed input, 2 a series failed to converge, 3 a converged check whose
sides disagree beyond tolerance.  Malformed input means an ``F3Error``, a
command line error or an unreadable file; any other exception is a bug and
propagates.

``--tol`` is the truncation tolerance for ``eval`` and the residual tolerance
for ``check``/``suite``; the latter derive their series truncation policy
from it with :func:`f3sum.identities.derived_policy`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from .errors import F3Error
from .f3core import arguments_from_json, eval_f3
from .identities import (
    DEFAULT_OUTER_CAP,
    DEFAULT_RESIDUAL_TOL,
    check_identity,
    derived_policy,
    instance_from_json,
    list_identities,
)
from .numerics import FLOAT64, RATIONAL, TruncationPolicy
from .params import format_number, parameter_set_from_json
from .suite import SuiteConfig, run_suite, write_rows_csv

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_IDENTITY_FAILED = 3


class CliInputError(Exception):
    """Bad command line or input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliInputError(message)


def _add_series_flags(sp: argparse.ArgumentParser, default_tol: float) -> None:
    sp.add_argument("--tol", type=float, default=default_tol,
                    help="tolerance (see module help for the per-command meaning)")
    sp.add_argument("--max-degree", type=int, default=TruncationPolicy.max_total_degree,
                    dest="max_degree", help="total-degree cap for series truncation")
    sp.add_argument("--stall-window", type=int, default=TruncationPolicy.stall_window,
                    dest="stall_window",
                    help="consecutive small shells required to accept convergence")
    sp.add_argument("--backend", choices=(FLOAT64, RATIONAL), default=FLOAT64,
                    help="arithmetic backend")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="f3sum",
        description="Evaluate the general triple hypergeometric series and "
        "verify its resummation rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the triple series")
    p_eval.add_argument("--params", help='families as JSON, e.g. \'{"a": [1.5], "h": [2]}\'')
    p_eval.add_argument("--args", dest="args_json",
                        help='arguments as a JSON list, e.g. "[0.1, 0.0, -0.2]"')
    p_eval.add_argument("--file", help='JSON file with {"params": ..., "args": ...}')
    _add_series_flags(p_eval, TruncationPolicy.tol)
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="verify one rule instance")
    p_check.add_argument("--file", help="instance JSON file")
    p_check.add_argument("--json", dest="inline_json", help="instance JSON inline")
    p_check.add_argument("--outer-cap", type=int, default=DEFAULT_OUTER_CAP, dest="outer_cap",
                         help="term cap for the outer resummation index")
    _add_series_flags(p_check, DEFAULT_RESIDUAL_TOL)
    p_check.set_defaults(func=cmd_check)

    p_suite = sub.add_parser("suite", help="run the seeded verification suite")
    p_suite.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p_suite.add_argument("--instances", type=int, default=SuiteConfig.instances,
                         help="instances per lemma, rule, and special case")
    p_suite.add_argument("--out", default="f3sum_suite.csv", help="CSV output path")
    p_suite.add_argument("--jobs", type=int, default=SuiteConfig.jobs, help="worker processes")
    p_suite.add_argument("--outer-cap", type=int, default=DEFAULT_OUTER_CAP, dest="outer_cap")
    _add_series_flags(p_suite, DEFAULT_RESIDUAL_TOL)
    p_suite.set_defaults(func=cmd_suite)

    p_list = sub.add_parser("list", help="list the known rules")
    p_list.set_defaults(func=cmd_list)

    return parser


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"invalid JSON for {what}: {exc}") from exc


def _read_file(path: str) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"invalid JSON in {path}: {exc}") from exc


def _dump(data: object) -> None:
    """Print ``data`` as strict JSON.  A non-finite float value of a mapping
    is written as its repr string (``"inf"``, ``"-inf"``, ``"nan"``), the
    spelling the suite CSV uses, since JSON has no such numbers."""
    if isinstance(data, dict):
        data = {
            key: repr(value) if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in data.items()
        }
    print(json.dumps(data, indent=2, allow_nan=False))


def cmd_eval(ns: argparse.Namespace) -> int:
    if ns.file is not None:
        data = _read_file(ns.file)
        if not isinstance(data, dict) or "params" not in data or "args" not in data:
            raise CliInputError('eval file needs {"params": ..., "args": ...}')
        raw_params, raw_args = data["params"], data["args"]
    elif ns.params is not None and ns.args_json is not None:
        raw_params = _load_json(ns.params, "--params")
        raw_args = _load_json(ns.args_json, "--args")
    else:
        raise CliInputError("eval needs either --file, or both --params and --args")

    ps = parameter_set_from_json(raw_params, ns.backend)
    args = arguments_from_json(raw_args, ns.backend)
    policy = TruncationPolicy(
        tol=ns.tol, max_total_degree=ns.max_degree, stall_window=ns.stall_window
    )
    result = eval_f3(ps, args, policy)
    _dump({
        "value": format_number(result.value),
        "converged": result.converged,
        "terminated_exactly": result.terminated_exactly,
        "shells_used": result.shells_used,
        "last_shell_magnitude": result.last_shell_magnitude,
    })
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_check(ns: argparse.Namespace) -> int:
    if ns.outer_cap < 1:
        raise CliInputError("--outer-cap must be >= 1")
    if (ns.file is None) == (ns.inline_json is None):
        raise CliInputError("check needs exactly one of --file or --json")
    data = _read_file(ns.file) if ns.file is not None else _load_json(ns.inline_json, "--json")
    if not isinstance(data, dict):
        raise CliInputError("instance JSON must be an object")
    inst = instance_from_json(data, ns.backend)
    report = check_identity(
        inst,
        policy=derived_policy(ns.tol, ns.max_degree, ns.stall_window),
        residual_tol=ns.tol,
        outer_cap=ns.outer_cap,
    )
    _dump(report.to_json_dict())
    if report.passed:
        return EXIT_OK
    if report.converged_lhs and report.converged_rhs:
        return EXIT_IDENTITY_FAILED
    return EXIT_NOT_CONVERGED


def cmd_suite(ns: argparse.Namespace) -> int:
    if ns.instances < 1:
        raise CliInputError("--instances must be >= 1")
    if ns.jobs < 1:
        raise CliInputError("--jobs must be >= 1")
    if ns.outer_cap < 1:
        raise CliInputError("--outer-cap must be >= 1")
    config = SuiteConfig(
        seed=ns.seed,
        instances=ns.instances,
        backend=ns.backend,
        residual_tol=ns.tol,
        outer_cap=ns.outer_cap,
        jobs=ns.jobs,
        policy=derived_policy(ns.tol, ns.max_degree, ns.stall_window),
    )
    summary, rows = run_suite(config)
    write_rows_csv(rows, ns.out)
    summary["csv_path"] = ns.out
    _dump(summary)
    if summary["all_pass"]:
        return EXIT_OK
    failed_converged = any(
        not row["pass"] and row["converged_lhs"] and row["converged_rhs"]
        for row in rows
    )
    return EXIT_IDENTITY_FAILED if failed_converged else EXIT_NOT_CONVERGED


def cmd_list(ns: argparse.Namespace) -> int:
    _dump(list_identities())
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except (CliInputError, F3Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
