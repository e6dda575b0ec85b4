"""Host speed, sampled between ops, so that timings share one scale.

On a shared host the same code runs up to 1.4x slower in one run than in
the next.  Between ops the benchmark times a fixed pure-Python reference
kernel (``sample``), many times over a phase.  The phase's timings are then
multiplied by ``REF_MS`` over the mean kernel time, so a scaled timing reads
as it would on a host where one kernel call takes ``REF_MS`` milliseconds,
and most of the drift cancels out of it.  The kernel is the benchmark's own
code: a change to the package does not change it.  Raw timings are
reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Kernel time on the host the bounds were proven on (2 vCPUs of a shared
# x86-64 machine, CPython 3.11), so scaled timings stay near raw ones there.
REF_MS = 1.0


def kernel():
    """``Fraction`` arithmetic on growing big integers.

    Of the kernels tried (this one, a float loop, small fractions, dict and
    call churn), this one's time tracked the time of eval_f3 calls in both
    backends and of rational suite passes most closely.
    """
    a = Fraction(1, 7)
    for i in range(1, 130):
        a = a * Fraction(i + 3, i + 5) + Fraction(1, i)
    return a


def sample():
    """Milliseconds for one kernel call now, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return 1e3 * (time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


class Timings:
    """Raw wall time and per-op latencies of one phase, with the host-speed
    samples taken across it.

    The host switches between a fast and a slow state many times a second,
    and the share of time it spends slow drifts over tens of seconds.  One
    sample catches one state; the mean of many samples spread over the phase
    estimates that share, and so the factor that scales the whole phase.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.raw_ms = []
        self.samples = []

    def add(self, wall_s, op_ms=()):
        self.raw_s += wall_s
        self.raw_ms.extend(op_ms)

    def sample(self, count=1, gap_s=0.0):
        """Take ``count`` samples ``gap_s`` apart, spinning in the gaps: a
        sleep would let the CPU idle, and the first work after an idle spell
        runs at another speed than the busy workload does."""
        for i in range(count):
            if i:
                end = time.perf_counter() + gap_s
                while time.perf_counter() < end:
                    pass
            self.samples.append(sample())

    @property
    def factor(self):
        return REF_MS / statistics.fmean(self.samples)

    @property
    def scaled_s(self):
        return self.raw_s * self.factor

    @property
    def scaled_ms(self):
        factor = self.factor
        return [ms * factor for ms in self.raw_ms]
