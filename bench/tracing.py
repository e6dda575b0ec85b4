"""Spans around the package's layer boundaries, recorded from outside.

Tracing replaces module attributes that the package calls through (for
example ``f3sum.identities.eval_f3``) with wrappers that record a span, and
puts the originals back afterwards.  No file of the package changes.  Spans
stay in memory until the run ends; one tracer serves one thread, so traced
suite passes run at ``jobs = 1``.

``numerics`` is deliberately not wrapped: its leaf functions run about a
million times per pass and a wrapper would mostly time itself.  Its cost is
inside ``f3core.ns_per_point``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from math import comb

# (module, attribute, span name) for every boundary a suite pass crosses.
SUITE_TARGETS = (
    ("identities", "eval_f3", "f3core.eval_f3"),
    ("identities", "weight_value", "identities.weight_value"),
    ("suite", "eval_pfq", "f3core.eval_pfq"),
    ("suite", "check_identity", "identities.check_identity"),
    ("special", "check_identity", "identities.check_identity"),
    ("suite", "check_special_case", "special.check_special_case"),
    ("suite", "random_instance", "suite.generate"),
    ("suite", "exact_instance", "suite.generate"),
    ("suite", "special_case_inputs", "suite.generate"),
    ("suite", "lemma_case", "suite.generate"),
)
# Counted, not timed: one call per ParameterSet built.
COUNT_TARGETS = (("params", "classify_backend", "params.parameter_sets_built"),)


class Tracer:
    """Records ``(id, parent, root, name, start, end)`` spans in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.evals = {}  # span id -> (ParameterSet, ArgumentTriple, result)
        self._stack = []
        self._next = 0

    def wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        evals = self.evals if name == "f3core.eval_f3" else None

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else None
            root = stack[0] if stack else sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, root, name, start, end))
            if evals is not None:
                evals[sid] = (args[0], args[1], result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, f3sum):
        """Swap the suite's boundaries for traced wrappers, then restore."""
        saved = []
        try:
            targets = [(t, self.wrap) for t in SUITE_TARGETS]
            targets += [(t, self.counter) for t in COUNT_TARGETS]
            for (module_name, attr, name), make in targets:
                module = getattr(f3sum, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": root, "name": name,
                    "start": start, "end": end,
                }) + "\n")


def lattice_points(f3sum, ps, args, shells, memo):
    """Lattice points ``eval_f3`` visits in shells 0..shells-1.

    Counted from the public support test: a point is visited when it is in
    the numerator support and no zero argument kills its direction.  The
    count never exceeds C(S+2, 3) for S shells.
    """
    bounds = f3sum.params.numerator_bounds(ps)
    zero_dir = tuple(x == 0 for x in args)
    key = (tuple(sorted(bounds.items())), zero_dir, shells)
    if key not in memo:
        if not any(zero_dir) and all(b is None for b in bounds.values()):
            count = comb(shells + 2, 3)
        else:
            count = 0
            for s in range(shells):
                for m1 in range(s + 1):
                    for m2 in range(s - m1 + 1):
                        m = (m1, m2, s - m1 - m2)
                        if any(z and k for z, k in zip(zero_dir, m)):
                            continue
                        if f3sum.params.in_support(bounds, *m):
                            count += 1
        if count > comb(shells + 2, 3):
            raise AssertionError(f"{count} points in {shells} shells exceeds C(S+2, 3)")
        memo[key] = count
    return memo[key]


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(f3sum, tracer):
    """Per-layer figures from one tracer's spans.

    A layer the traced work never reaches reports 0.
    """
    children = {}
    by_id = {}
    for span in tracer.spans:
        sid, parent, _root, name, start, end = span
        by_id[sid] = span
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)

    stats = {}
    for sid, _parent, _root, name, start, end in tracer.spans:
        entry = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += (end - start) - children.get(sid, 0.0)
        entry["durations"].append(end - start)

    def get(name, field):
        entry = stats.get(name)
        return entry[field] if entry else 0

    def ms(name, q):
        entry = stats.get(name)
        return 1e3 * percentile(entry["durations"], q) if entry else 0.0

    memo = {}
    points = 0
    shells = []
    converged = terminated = 0
    inner = 0
    for sid, (ps, args, result) in tracer.evals.items():
        points += lattice_points(f3sum, ps, args, result.shells_used, memo)
        shells.append(result.shells_used)
        converged += result.converged
        terminated += result.terminated_exactly
        parent = by_id[sid][1]
        while parent is not None:
            if by_id[parent][3] == "identities.check_identity":
                inner += 1
                break
            parent = by_id[parent][1]

    evals = len(tracer.evals)
    checks = get("identities.check_identity", "calls")
    eval_self = get("f3core.eval_f3", "self")
    return {
        "f3core.eval_f3.calls": evals,
        "f3core.eval_f3.self_s": eval_self,
        "f3core.eval_f3.points": points,
        "f3core.eval_f3.shells_mean": statistics.fmean(shells) if shells else 0.0,
        "f3core.eval_f3.converged_share": converged / evals if evals else 0.0,
        "f3core.eval_f3.terminated_share": terminated / evals if evals else 0.0,
        "f3core.ns_per_point": 1e9 * eval_self / points if points else 0.0,
        "f3core.eval_pfq.calls": get("f3core.eval_pfq", "calls"),
        "f3core.eval_pfq.self_s": get("f3core.eval_pfq", "self"),
        "identities.check_identity.calls": checks,
        "identities.check_identity.ms_p50": ms("identities.check_identity", 50),
        "identities.check_identity.ms_p90": ms("identities.check_identity", 90),
        "identities.check_identity.self_s": get("identities.check_identity", "self"),
        "identities.weight_value.calls": get("identities.weight_value", "calls"),
        "identities.weight_value.self_s": get("identities.weight_value", "self"),
        "identities.inner_evals_per_check": inner / checks if checks else 0.0,
        "special.check_special_case.calls": get("special.check_special_case", "calls"),
        "special.check_special_case.ms_p50": ms("special.check_special_case", 50),
        "params.parameter_sets_built": tracer.counts.get("params.parameter_sets_built", 0),
        "suite.run_suite.s": get("suite.run_suite", "total"),
        "suite.self_s": get("suite.run_suite", "self"),
        "suite.generate.calls": get("suite.generate", "calls"),
        "suite.generate.self_s": get("suite.generate", "self"),
    }
