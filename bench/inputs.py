"""Seeded inputs for the benchmark workloads.

Every input is a pure function of ``--seed``.  The ``eval-*`` pools are
stratified: slot ``i`` of a pool always has the same family sizes and the
same argument magnitude, and the seed draws every parameter entry, the
argument signs and (for floats) how the magnitude splits between the three
arguments.  Each seed then does the same amount of work in expectation, so
runs on different seeds stay comparable.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("eval-float", "eval-rational", "suite-float", "suite-rational")

# eval-float: 2048 slots, l1 radius |x1|+|x2|+|x3| from 0 to 0.3.  Each block
# of 16 consecutive slots spans the whole radius range, so a run that stops
# part way through the pool still sees every radius.
FLOAT_POOL = 2048
FLOAT_BLOCK = 16
FLOAT_RADIUS = 0.3
# eval-rational: 360 slots cycling through all 10 magnitude triples
# (k1, k2, k3) with k >= 1 and k1+k2+k3 <= 5, arguments +-k/40.
RATIONAL_POOL = 360
RATIONAL_L1 = 5
RATIONAL_DENOMINATOR = 40
EVAL_TOL = 1e-15
EVAL_MAX_DEGREE = 40

# Suite workloads: one whole ``run_suite`` pass per cycle, as the CLI runs it,
# with the CLI's default five instances (130 rows).  Cycle k of a run with
# seed s uses suite seed s * seeds + k % seeds, so a run averages over several
# seeds' instances and a repeated seed checks that its CSV bytes repeat.  A
# rational cycle takes about 0.25 s, so it rotates over more seeds (160
# instances a pass) and the host-speed samples between cycles come often.
SUITE_INSTANCES = 5
SUITE_SEEDS = {"suite-float": 4, "suite-rational": 32}


def balance_groups(f3sum):
    """The suite's family-size rule, derived from ``FAMILY_COMBO``.

    Per direction, and per pair of directions, the upstairs entries whose
    order grows along it may outnumber the downstairs ones by at most one.
    Returns one (upstairs, downstairs) pair of family lists per condition.
    """
    combo = f3sum.FAMILY_COMBO
    groups = []
    for dirs in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2)):
        up = [f for f in f3sum.NUMERATOR_FAMILIES if all(combo[f][d] for d in dirs)]
        down = [f for f in f3sum.DENOMINATOR_FAMILIES if all(combo[f][d] for d in dirs)]
        groups.append((up, down))
    return groups


def balanced(groups, lengths):
    return all(sum(lengths[f] for f in up) <= sum(lengths[f] for f in down) + 1
               for up, down in groups)


def _shapes(f3sum, count):
    # Fixed stream, independent of --seed: see the module docstring.
    rng = random.Random("bench:shapes")
    groups = balance_groups(f3sum)
    shapes = []
    while len(shapes) < count:
        lengths = {f: rng.randrange(3) for f in f3sum.FAMILIES}
        if balanced(groups, lengths):
            shapes.append(lengths)
    return shapes


def rational_triples():
    span = range(1, RATIONAL_L1 + 1)
    return [(a, b, c) for a in span for b in span for c in span if a + b + c <= RATIONAL_L1]


def _seventh(rng):
    # Positive sevenths in [2/7, 17/7] that are never integers: no series
    # terminates and no downstairs Pochhammer factor vanishes.
    while True:
        k = rng.randrange(2, 18)
        if k % 7:
            return Fraction(k, 7)


def eval_pool(f3sum, workload, seed):
    """The ``(ParameterSet, ArgumentTriple)`` ops of an ``eval-*`` workload."""
    rng = random.Random(f"{seed}:{workload}")
    if workload == "eval-float":
        count = FLOAT_POOL
        triples = None
    else:
        count = RATIONAL_POOL
        triples = rational_triples()
    ops = []
    for i, lengths in enumerate(_shapes(f3sum, count)):
        if triples is None:
            rank = (i % FLOAT_BLOCK) * (count // FLOAT_BLOCK) + i // FLOAT_BLOCK
            radius = FLOAT_RADIUS * (rank + 0.5) / count
            split = [rng.uniform(0.2, 1.0) for _ in range(3)]
            xs = [rng.choice((-1, 1)) * radius * w / sum(split) for w in split]
            fields = {f: tuple(rng.uniform(0.3, 2.5) for _ in range(n)) for f, n in lengths.items()}
        else:
            xs = [Fraction(rng.choice((-1, 1)) * k, RATIONAL_DENOMINATOR) for k in triples[i % len(triples)]]
            fields = {f: tuple(_seventh(rng) for _ in range(n)) for f, n in lengths.items()}
        ops.append((f3sum.ParameterSet(**fields), f3sum.ArgumentTriple(*xs)))
    return ops


def eval_policy(f3sum):
    return f3sum.TruncationPolicy(tol=EVAL_TOL, max_total_degree=EVAL_MAX_DEGREE)


def suite_config(f3sum, workload, seed, jobs, cycle=0):
    """The ``SuiteConfig`` that cycle ``cycle`` of a ``suite-*`` run passes."""
    seeds = SUITE_SEEDS[workload]
    backend = f3sum.FLOAT64 if workload == "suite-float" else f3sum.RATIONAL
    return f3sum.SuiteConfig(seed=seed * seeds + cycle % seeds, instances=SUITE_INSTANCES,
                             backend=backend, jobs=jobs)


def warmup_row(f3sum, seed):
    """The suite's first row, a lemma check, through the public functions."""
    case = f3sum.lemma_case(f3sum.LEMMA_NAMES[0], seed, 0)
    return f3sum.eval_pfq(case.upper, case.lower, case.argument)
