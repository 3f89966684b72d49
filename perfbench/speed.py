"""Machine-speed probe: a fixed reference kernel sampled during timing.

On a shared host the speed of the same code drifts by tens of percent
within minutes, for the whole process alike: process CPU time moves exactly
as wall time does.  The probe runs a small fixed kernel (complex scalar
recurrences and numpy calls, the two kinds of work qnmopt does) every
PERIOD seconds from a SIGALRM handler and subtracts its own time from every
interval it interrupted.  Times are then reported in reference seconds.
Work done over an interval is its length times the time-average of the
host's speed, so an interval's factor is the mean of REF_S / kernel time
over the samples taken inside it.  A uniformly slower host leaves reference
seconds unchanged, while a slower program does not.  The kernel never
calls qnmopt, so no change to the library moves it.
"""
from __future__ import annotations

import cmath
import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD = 0.25         # seconds between samples while the probe runs
REF_S = 0.0055        # kernel time on the reference machine (2-core Xeon VM)

_rng = np.random.default_rng(12345)
_VALS = tuple(float(v) for v in _rng.uniform(1.0, 4.0, 2048))
_ARR = _rng.uniform(1.0, 4.0, 1 << 14)
_CELLS = _rng.uniform(1.0, 4.0, 256)
_LAYERS = tuple(zip([0.125] * 8, _rng.uniform(1.0, 4.0, 8).tolist()))
_CIRCLE = (2.0 + 0.5j) + 0.3 * np.exp(2j * np.pi * np.arange(64) / 64)


@dataclass(frozen=True)
class _State:
    x: float
    y: complex


def _large() -> complex:
    """A 2048-layer scalar sweep allocating small frozen records, then
    numpy calls on a 16k array: a working set beyond the L1 cache."""
    z = 3.3 + 0.2j
    p, dp = 1.0 + 0j, 0j
    states = []
    for b in _VALS:
        w = z * math.sqrt(b)
        c, s = cmath.cos(w / 2048), cmath.sin(w / 2048)
        p, dp = c * p + s / w * dp, -w * s * p + c * dp
        if len(states) < 256:
            states.append(_State(b, p))
    return p + float(np.sum(np.sin(_ARR) * np.cos(_ARR * 1.3)))


def _small() -> complex:
    """Many short numpy calls on 64 points (a contour sweep), a 256-layer
    scalar sweep and float tuples built from arrays (medium conversion)."""
    for _ in range(6):
        p, dp = np.ones_like(_CIRCLE), np.zeros_like(_CIRCLE)
        for length, b in _LAYERS:
            w = _CIRCLE * math.sqrt(b)
            c, s = np.cos(w * length), np.sin(w * length)
            p, dp = c * p + s / w * dp, -w * s * p + c * dp
    z, q, dq = 3.3 + 0.2j, 1.0 + 0j, 0j
    for b in _CELLS.tolist():
        w = z * math.sqrt(b)
        c, s = cmath.cos(w / 256), cmath.sin(w / 256)
        q, dq = c * q + s / w * dq, -w * s * q + c * dq
    for _ in range(3):
        tuple(float(v) for v in _CELLS)
    return complex(p[0]) + q


def kernel() -> complex:
    """The reference work.  Against the workloads' own slowdowns the large
    part alone tracked with slope about 1.1 and the small part alone about
    0.85; their sum tracks with slope about 1."""
    return _large() + _small()


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the kernel every PERIOD s while entered.

    `stolen` is the total time spent in the handler; callers subtract its
    growth over an interval from that interval's length.
    """

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.samples: list = []
        self.stolen = 0.0
        self._busy = False
        self._old = None

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(sample())
        finally:
            self.stolen += time.perf_counter() - t0
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Mean of REF_S / sample over samples[first:last] (all by default);
        multiply seconds measured over that stretch by it."""
        chosen = self.samples[first:last] or self.samples or [sample()]
        return statistics.fmean(REF_S / s for s in chosen)


def bracket_factor(n: int = 16) -> float:
    """Speed factor from n kernel samples, for a short interval measured
    right next to it (set-up, where the timer would fire too rarely)."""
    return statistics.fmean(REF_S / sample() for _ in range(n))
