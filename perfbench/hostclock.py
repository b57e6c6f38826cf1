"""Timing scaled to a reference host speed.

The benchmark runs on shared machines where other tenants slow a process by
up to 3x, in swings that last from under a second to minutes. A command's wall
time alone then says more about the neighbours than about the program. So
while a command runs, a timer interrupts it every TICK_S seconds to time a
probe of fixed work, made of the kinds of work pqcgeo does: 4x4 LAPACK and
matrix products in a Python loop, float formatting, and a ufunc over a large
array. The probe also runs just before and just after the command. A
command's time, with the probes taken out, is scaled by REFERENCE_S over the
mean probe time, and so reads as the seconds it would take on a host where
the probe takes REFERENCE_S (its time on an idle 2-CPU host like the one the
README names).
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0025
TICK_S = 0.1


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(20210604)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self._herm = a + a.conj().T
        self._a, self._v = a, rng.normal(size=4) + 0j
        self._floats = rng.normal(size=300)
        self._big = rng.normal(size=50_000)
        self._samples: list[float] = []

    def probe(self) -> float:
        """Seconds taken by the fixed probe work right now."""
        a, v = self._a, self._v
        t0 = time.perf_counter()
        for _ in range(25):
            np.linalg.eigh(self._herm)
            np.kron(a[:2, :2], a[2:, 2:]) @ v
            float(np.real(np.vdot(v, a @ v)))
        ",".join(repr(float(x)) for x in self._floats)
        np.sin(self._big)
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self._samples.append(self.probe())

    def measure(self, fn):
        """(result of fn(), seconds of fn without the probes, those seconds scaled
        to the reference host)."""
        before = self.probe()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        own = max(elapsed - sum(self._samples), 0.0)
        probe = statistics.mean([before, *self._samples, self.probe()])
        return result, own, own * REFERENCE_S / probe
