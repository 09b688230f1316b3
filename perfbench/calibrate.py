"""Machine-speed probe for the timed phases.

On the small shared machines this benchmark runs on, the same CPU-bound code
runs at two speeds about 45% apart, switching every second or so, and whole
minutes can run slow; CPU time shows the same swings, so the time is lost on
the CPU, not to the hypervisor. The probe times a fixed mix of small numpy
operations and Python loops, the same kind of work the decoder does, right
after each reply. A reply's time is then reported at a fixed reference
speed:

    reported = measured * REFERENCE_S / (mean probe time near the reply)

where "near" is within one reply length (at least 5 ms) before its start
or after its end: the two probes next to a short reply, which share its
speed, and a few more around a long one, which averages over several. An
interval that holds several replies, such as one ``compare`` call, has the
probe samples taken between its replies subtracted from its time.
REFERENCE_S is about the probe's time on the machine the benchmark was
sized on, so reported times read roughly as milliseconds there. The probe
does not call ``ipsearch``, so a change to the library does not move it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0025


class SpeedProbe:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self._x = rng.normal(size=(24, 16))
        self._w = rng.normal(size=(16, 64))
        self._times: list[float] = []  # midpoint of each sample, ascending
        self.seconds: list[float] = []  # duration of each sample

    def sample(self) -> float:
        """Seconds taken by one pass of the fixed reference work; the sample is kept."""
        t0 = perf_counter()
        acc = 0.0
        for _ in range(150):
            z = self._x @ self._w
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            acc += float(e[0, 0] / e[0].sum())
            acc += sum(j * 0.5 for j in range(20))
        if acc != acc:  # keeps the loop's result alive
            raise ArithmeticError("probe produced NaN")
        dt = perf_counter() - t0
        self._times.append(t0 + dt / 2)
        self.seconds.append(dt)
        return dt

    def scaled(self, t0: float, t1: float) -> float:
        """The interval t0..t1 in seconds at the reference speed, less the
        probe samples taken inside it."""
        pad = max(t1 - t0, 0.005)
        lo, hi = bisect_left(self._times, t0 - pad), bisect_right(self._times, t1 + pad)
        near = self.seconds[lo:hi]
        if not near:
            raise ValueError("no probe sample near the interval")
        inside = sum(dt for mid, dt in zip(self._times[lo:hi], near) if t0 <= mid <= t1)
        return (t1 - t0 - inside) * REFERENCE_S * len(near) / sum(near)
