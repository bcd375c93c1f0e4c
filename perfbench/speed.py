"""Gauge of the host's speed while a call runs, to normalize its wall time.

The benchmark shares the host's cores with other tenants.  Their load changes
the speed of this process by up to ~1.7x, switching within seconds, so the raw
wall time of a call drifts with whatever else the host does.  A gauge samples
that speed during the call: an interval timer interrupts the call every
PERIOD_S seconds (SETUP_PERIOD_S during an import) and times a short fixed
probe loop.  The probe uses no twinphoton code, so a change to the program
cannot move it.

With the speed v(t) sampled uniformly in time, the work a call does is
W = integral of v dt = wall * mean(v), and v at a sample is proportional to
1 / (probe duration).  The normalized time of the call is therefore

    (wall - time spent in probes) * mean(reference / probe duration),

the time the call would take at the speed where one probe takes its
reference time (PROBES).
"""

from __future__ import annotations

import contextlib
import functools
import signal
import time
from math import cos, sin, sqrt

PERIOD_S = 0.05
# an import takes ~0.1 s, so set-up is sampled more often
SETUP_PERIOD_S = 0.01


def _probe_term(k, x):
    w = sqrt(2.0 * (k + 1.0))
    s = sin(w * x)
    c = cos(0.5 * w * x)
    return (s * s / (w * w), (c * c) * (c * c), float(k) * s)


def python_probe(rounds=8):
    """Interpreter-bound loop shaped like the pure-Python kernel."""
    acc = [0.0, 0.0, 0.0]
    comp = [0.0, 0.0, 0.0]
    for r in range(rounds):
        x = 1e-3 * r
        for k in range(64):
            term = _probe_term(k, x)
            for j in range(3):
                y = 0.5 * term[j] - comp[j]
                t = acc[j] + y
                comp[j] = (t - acc[j]) - y
                acc[j] = t
    return acc


@functools.cache
def _blas_operands():
    import numpy

    index = numpy.arange(1.0, 161.0)
    vectors = numpy.cos(0.37 * numpy.outer(index, index))
    return numpy, vectors, numpy.sin(0.1 * index), vectors[:32, :].T.copy()


def blas_probe(rounds=4):
    """Complex matrix products shaped like the dense oracle's propagation."""
    numpy, vectors, values, rows = _blas_operands()
    acc = 0.0
    for r in range(rounds):
        phases = numpy.exp(-1j * values * (0.1 * r))
        acc += (vectors @ (phases[:, None] * rows))[0, 0].real
    return acc


# probe per kind, and its reference time: about its time on an idle 2-vCPU
# Xeon VM (CPython 3.11, numpy with OpenBLAS on one thread).  A normalized
# time is in seconds at the speed where one probe takes that long.
PROBES = {"python": (python_probe, 5.0e-4), "blas": (blas_probe, 1.0e-3)}


def probe_seconds(kind) -> float:
    start = time.perf_counter()
    PROBES[kind][0]()
    return time.perf_counter() - start


class Gauge:
    """Samples one kind of probe during a block; see the module docstring."""

    def __init__(self, kind, period=PERIOD_S):
        self.kind = kind
        self.period = period
        self.durations = []
        self.wall_s = 0.0
        self.in_call_s = 0.0
        # the first run of a probe may import and build its operands, which
        # must not happen inside a signal handler
        probe_seconds(kind)

    @contextlib.contextmanager
    def sampling(self):
        """Time the block and sample the speed while it runs (once after it, if it is short)."""
        self.durations = []
        probing = False

        def handler(signum, frame):
            nonlocal probing
            if probing:  # the timer fired again during a probe
                return
            probing = True
            self.durations.append(probe_seconds(self.kind))
            probing = False

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        start = time.perf_counter()
        try:
            yield self
        finally:
            probing = True  # a signal still pending runs no probe
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.wall_s = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        self.in_call_s = sum(self.durations)
        if not self.durations:
            self.durations.append(probe_seconds(self.kind))

    def normalize(self) -> float:
        """Normalized time of the last sampled block."""
        reference = PROBES[self.kind][1]
        speed = sum(reference / d for d in self.durations) / len(self.durations)
        return (self.wall_s - self.in_call_s) * speed
