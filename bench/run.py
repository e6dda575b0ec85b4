"""Layered benchmark for f3sum.

One workload per run, driven by a closed loop: a single caller in this
process sends the next op only after the previous one returns.  The only
extra threads are the suite's own ``jobs`` workers on ``suite-float``.

    python3 bench/run.py --workload eval-float --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --seed 0            # all four workloads, untraced
    python3 bench/run.py --seed 0 --trace 1  # all four, per-layer figures

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics from a traced pass (see ``tracing.py``).  The
end-to-end timings are put on one host-speed scale (see ``hostspeed.py``);
the raw timings are printed and recorded beside them.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` and ``failed`` count distinct ops:
an op repeated in the timed phase counts once, and must repeat its verdict.
Every output is checked against ``oracle.py`` outside the timed phase, and
a run record goes to ``.bench_out/`` at the repository root.  The package is
imported from ``src/`` next to this directory; without it the run exits with
code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

# Set-up runs before the timed phase and again after it, each time at least
# SETUP_MIN_REPEATS times and for SETUP_MIN_SECONDS, so that its median does
# not hang on one stretch of machine load.
SETUP_MIN_REPEATS = 8
SETUP_MIN_SECONDS = 1.0
# Host-speed samples (see hostspeed.py): on eval-* one after the op that
# ends each SAMPLE_EVERY_S; after each suite cycle a burst of (count,
# seconds apart) samples, spread out after the long float cycles; and a
# burst of SETUP_BURST after each set-up.
SAMPLE_EVERY_S = 0.05
SUITE_BURST = {"suite-float": (12, 0.05), "suite-rational": (2, 0.0)}
SETUP_BURST = (4, 0.05)
# Sample of eval-* slots checked against the naive triple loop.  Slot 17*j
# is at position j of its block of FLOAT_BLOCK float slots, so the sample
# spans the whole radius range; the rational sample holds each argument
# triple once.
ORACLE_SLOTS = {
    "eval-float": [17 * j for j in range(inputs.FLOAT_BLOCK)],
    "eval-rational": range(len(inputs.rational_triples())),
}


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_f3sum():
    """Import the package from ``src/`` afresh; refuse any other copy."""
    for name in [n for n in sys.modules if n == "f3sum" or n.startswith("f3sum.")]:
        del sys.modules[name]
    f3sum = importlib.import_module("f3sum")
    if Path(f3sum.__file__).resolve().parent != SRC / "f3sum":
        raise ImportError(f"f3sum imported from {f3sum.__file__}, not from {SRC}")
    return f3sum


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Counts, checks and figures gathered by one workload run."""

    def __init__(self, workload, seed, seconds, traced):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        # Each distinct op counts once in attempted and failed, so both are
        # a function of the seed alone, not of how many repeats the host's
        # speed allowed.  A repeat must give its op's first verdict again.
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.op_failures = []  # ops that gave no verified result
        self.errors = []  # wrong outputs: these make the run incorrect
        # Timed phase: ops done, and wall time with latency samples (ms):
        # one per eval_f3 call on eval-*, one per cycle (wall time per row)
        # on suite-*, whose rows run inside run_suite.
        self.timed_ops = 0
        self.timings = None
        self.metrics = {}
        self.info = {}
        self.peak_rss_mb = 0.0

    def op_done(self, key, failure=None):
        """Record one op's verdict: ``failure`` is None or why it failed."""
        if key in self.verdicts:
            if self.verdicts[key] != failure:
                self.wrong(f"op {key}: a repeat gave {failure!r}, "
                           f"the first run {self.verdicts[key]!r}")
            return
        self.verdicts[key] = failure
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.op_failures) < 20:
                self.op_failures.append(f"op {key}: {failure}")

    def wrong(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# Set-up: import, inputs from the seed, one warm-up op.


def set_up(workload, seed, timings):
    """Import, make the inputs, run one warm-up op; repeated, see above.

    Each set-up's time in ms is one sample of ``timings``."""
    first = time.perf_counter()
    for repeat in itertools.count(1):
        start = time.perf_counter()
        f3sum = import_f3sum()
        if workload.startswith("eval-"):
            ops = inputs.eval_pool(f3sum, workload, seed)
            f3sum.eval_f3(*ops[0], inputs.eval_policy(f3sum))
        else:
            jobs = nproc() if workload == "suite-float" else 1
            ops = [inputs.suite_config(f3sum, workload, seed, jobs, k)
                   for k in range(inputs.SUITE_SEEDS[workload])]
            inputs.warmup_row(f3sum, ops[0].seed)
        end = time.perf_counter()
        timings.add(end - start, [1e3 * (end - start)])
        # Free the previous copy of the package now, untimed, so that peak
        # RSS does not depend on how many set-ups ran.
        gc.collect()
        timings.sample(*SETUP_BURST)
        if repeat >= SETUP_MIN_REPEATS and end - first >= SETUP_MIN_SECONDS:
            return f3sum, ops


# ---------------------------------------------------------------------------
# eval-* workloads.


def eval_loop(run, f3sum, ops, seconds, call, limit=None, timings=None):
    """Cycle through the pool until the deadline and at least one whole
    pass (or until ``limit`` ops); returns (ops done, wall seconds).

    With ``timings``, the latencies go there, with host-speed samples."""
    policy = inputs.eval_policy(f3sum)
    latency = []
    done = 0
    start = sampled = time.perf_counter()
    deadline = start + seconds
    while True:
        for slot, (ps, args) in enumerate(ops):
            t0 = time.perf_counter()
            result = call(ps, args, policy)
            t1 = time.perf_counter()
            latency.append(1e3 * (t1 - t0))
            failure = None
            if not result.converged:
                failure = f"stopped after {result.shells_used} shells without converging"
            elif result.terminated_exactly:
                failure = "terminated, which no pool series should"
            run.op_done(slot, failure)
            done += 1
            last = done == limit or (limit is None and done >= len(ops) and t1 >= deadline)
            if timings is not None and (last or t1 - sampled >= SAMPLE_EVERY_S):
                timings.add(time.perf_counter() - sampled, latency)
                timings.sample()
                latency = []
                sampled = time.perf_counter()
            if last:
                return done, time.perf_counter() - start


def eval_oracle(run, f3sum, ops):
    policy = inputs.eval_policy(f3sum)
    worst = 0.0
    for slot in ORACLE_SLOTS[run.workload]:
        ps, args = ops[slot]
        result = f3sum.eval_f3(ps, args, policy)
        reference = oracle.naive_f3(ps, args, result.shells_used)
        ok, rel = oracle.check_eval_value(result.value, reference)
        worst = max(worst, rel)
        if not ok:
            run.wrong(f"slot {slot}: engine {result.value!r} vs naive {reference!r}")
    run.info["oracle_ops"] = len(ORACLE_SLOTS[run.workload])
    run.info["max_rel_err"] = worst


def run_eval(run, f3sum, ops):
    if not run.traced:
        run.timings = hostspeed.Timings()
        run.timed_ops, _ = eval_loop(run, f3sum, ops, run.seconds, f3sum.eval_f3,
                                     timings=run.timings)
        run.peak_rss_mb = peak_rss_mb()
    else:
        # The same ops untraced, then traced; the ratio is the overhead.
        done, plain = eval_loop(run, f3sum, ops, run.seconds / 2, f3sum.eval_f3)
        tracer = tracing.Tracer()
        traced_call = tracer.wrap("f3core.eval_f3", f3sum.eval_f3)
        _, traced = eval_loop(run, f3sum, ops, 0, traced_call, limit=done)
        run.metrics.update(tracing.layer_metrics(f3sum, tracer))
        # No suite runs here: those layers report 0.
        run.metrics.update({
            "suite.write_rows_csv.ms": 0.0,
            "suite.csv_bytes": 0,
            "suite.scaling_efficiency": 0.0,
            "trace.overhead_ratio": traced / plain,
        })
        tracer.dump(OUT / f"spans-{run.workload}-seed{run.seed}.jsonl")
    run.info["pool_ops"] = len(ops)
    run.info["inputs_digest"] = digest(repr(ops))


# ---------------------------------------------------------------------------
# suite-* workloads.


def suite_cycle(run, f3sum, config, tracer=None):
    """One run_suite pass; returns (wall seconds, CSV bytes, rows)."""
    call = f3sum.run_suite if tracer is None else tracer.wrap("suite.run_suite", f3sum.run_suite)
    start = time.perf_counter()
    _summary, rows = call(config)
    wall = time.perf_counter() - start
    exact = config.backend == f3sum.RATIONAL
    for index, row in enumerate(rows):
        verdict = oracle.row_verdict(row, exact)
        run.op_done((config.seed, index), None if verdict == "ok" else f"row {row}")
        if verdict == "wrong":
            run.wrong(f"suite seed {config.seed} wrong row: {row}")
    return wall, csv_bytes(f3sum, rows, f"{run.workload}.csv")[0], rows


def csv_bytes(f3sum, rows, name):
    path = OUT / name
    start = time.perf_counter()
    f3sum.write_rows_csv(rows, str(path))
    wall = time.perf_counter() - start
    return path.read_bytes(), wall


def run_suite(run, f3sum, configs):
    jobs = configs[0].jobs
    run.info["jobs"] = jobs
    run.info["instances"] = configs[0].instances
    if not run.traced:
        # Only the run_suite calls are timed; checking the rows and writing
        # the CSV between cycles are the benchmark's own work.
        csvs = {}
        run.timings = hostspeed.Timings()
        cycles = 0
        deadline = time.perf_counter() + run.seconds
        while cycles < len(configs) or time.perf_counter() < deadline:
            config = configs[cycles % len(configs)]
            wall, csv, rows = suite_cycle(run, f3sum, config)
            run.timings.add(wall, [1e3 * wall / len(rows)])
            run.timings.sample(*SUITE_BURST[run.workload])
            cycles += 1
            run.timed_ops += len(rows)
            if csvs.setdefault(config.seed, csv) != csv:
                run.wrong(f"suite seed {config.seed}: CSV bytes changed between cycles")
        run.peak_rss_mb = peak_rss_mb()
        run.info["cycles"] = cycles
        run.info["rows_per_cycle"] = len(rows)
    else:
        # One cycle's config, at jobs=1 so that every span has one parent.
        pooled = configs[0]
        config = dataclasses.replace(pooled, jobs=1)
        plain, plain_csv, _ = suite_cycle(run, f3sum, config)
        tracer = tracing.Tracer()
        with tracer.installed(f3sum):
            traced, traced_csv, rows = suite_cycle(run, f3sum, config, tracer)
        if traced_csv != plain_csv:
            run.wrong("suite CSV bytes differ between the traced and untraced pass")
        run.metrics.update(tracing.layer_metrics(f3sum, tracer))
        report, write_s = csv_bytes(f3sum, rows, f"{run.workload}-report.csv")
        run.metrics["suite.write_rows_csv.ms"] = 1e3 * write_s
        run.metrics["suite.csv_bytes"] = len(report)
        run.metrics["trace.overhead_ratio"] = traced / plain
        scaling = 0.0
        if jobs > 1:
            wall, pooled_csv, _ = suite_cycle(run, f3sum, pooled)
            if pooled_csv != traced_csv:
                run.wrong(f"suite CSV bytes differ between jobs=1 and jobs={jobs}")
            scaling = plain / (jobs * wall)
        run.metrics["suite.scaling_efficiency"] = scaling
        tracer.dump(OUT / f"spans-{run.workload}-seed{run.seed}.jsonl")
    run.info["inputs_digest"] = suite_digest(f3sum, configs[0])


def suite_digest(f3sum, config):
    """Digest of the instances a cycle generates (the CSV alone cannot tell
    seeds apart in the rational backend, where every residual is 0)."""
    parts = []
    for i in range(config.instances):
        for name in f3sum.LEMMA_NAMES:
            parts.append(repr(f3sum.lemma_case(name, config.seed, i)))
        for rid in f3sum.IDENTITY_IDS:
            if config.backend == f3sum.RATIONAL:
                inst = f3sum.exact_instance(rid, config.seed, i)
            else:
                inst = f3sum.random_instance(rid, config.seed, i)
            parts.append(f3sum.instance_to_json(inst))
        for kind in f3sum.SPECIAL_KINDS:
            parts.append(repr(f3sum.special_case_inputs(kind, config.seed, i, config.backend)))
    return digest(json.dumps(parts, default=repr, sort_keys=True))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Reporting.


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, seed, seconds, traced):
    OUT.mkdir(exist_ok=True)
    setup = hostspeed.Timings()
    f3sum, ops = set_up(workload, seed, setup)
    run = Run(workload, seed, seconds, traced)
    if workload.startswith("eval-"):
        run_eval(run, f3sum, ops)
        eval_oracle(run, f3sum, ops)
    else:
        run_suite(run, f3sum, ops)

    set_up(workload, seed, setup)

    if not traced:
        # Timings on the hostspeed.REF_MS scale; the raw ones go to info.
        timed = run.timings
        run.metrics.update({
            "setup_s": statistics.median(setup.scaled_ms) / 1e3,
            "ops_per_s": run.timed_ops / timed.scaled_s,
            "op_ms_p50": tracing.percentile(timed.scaled_ms, 50),
            "op_ms_p90": tracing.percentile(timed.scaled_ms, 90),
            "peak_rss_mb": run.peak_rss_mb,
        })
        run.info.update({
            "raw_setup_s": statistics.median(setup.raw_ms) / 1e3,
            "raw_ops_per_s": run.timed_ops / timed.raw_s,
            "raw_op_ms_p50": tracing.percentile(timed.raw_ms, 50),
            "raw_op_ms_p90": tracing.percentile(timed.raw_ms, 90),
            "host_factor": timed.factor,
            "host_samples": len(timed.samples),
            "setup_host_factor": setup.factor,
            "timed_ops": run.timed_ops,
            "timed_s": timed.raw_s,
            "latency_samples": len(timed.raw_ms),
            "setup_samples": len(setup.raw_ms),
        })

    spec = benchmark_spec()
    wanted = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(run.metrics) != set(units):
        raise SystemExit(
            "metric names disagree with BENCHMARK.json: "
            f"{sorted(set(run.metrics) ^ set(units))}"
        )
    run.info["failed_ratio"] = run.failed / run.attempted
    correct = not run.errors

    for name in sorted(run.metrics):
        print(f"{workload:15s} {name:40s} {run.metrics[name]:.6g} {units[name]}")
    for name in sorted(run.info):
        print(f"{workload:15s} {name:40s} {run.info[name]}")
    for message in run.op_failures:
        print(f"{workload:15s} OP FAILED: {message}")
    for message in run.errors:
        print(f"{workload:15s} WRONG OUTPUT: {message}")

    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": correct,
        "op_failures": run.op_failures,
        "errors": run.errors,
        "metrics": run.metrics,
        "info": run.info,
    }
    name = f"record-{workload}-seed{seed}-trace{int(traced)}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed, seconds, traced):
    """Each workload in its own process, so set-up and peak RSS stay its own."""
    results = {}
    status = 0
    for workload in inputs.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[workload] = {"correct": False, "exit": child.returncode}
        status = status or child.returncode
    summary = {"git_sha": git_sha(), "seed": seed, "trace": int(traced), "workloads": results}
    (OUT / f"record-all-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS,
                        help="one workload; all four in turn when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (SRC / "f3sum" / "__init__.py").is_file():
        print(f"f3sum sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = opts.seconds if opts.seconds is not None else benchmark_spec()["run_seconds"]
    if opts.workload is None:
        OUT.mkdir(exist_ok=True)
        return run_all(opts.seed, seconds, bool(opts.trace))
    return run_workload(opts.workload, opts.seed, seconds, bool(opts.trace))


if __name__ == "__main__":
    sys.exit(main())
