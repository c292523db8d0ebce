"""Host speed, sampled while the benchmark measures.

On a shared host the same pass can take half as long again for tens of
seconds at a time, with CPU time moving with wall time, so the slowdown is
the host's and not the scheduler's.  A fixed pure-Python loop, timed every
INTERVAL seconds from a SIGALRM handler while a pass runs, slows down with
it.  Dividing a pass's time by the probe time measured during that pass
removes most of the drift; REFERENCE_S expresses the result in seconds on a
host where the probe loop takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.25
REFERENCE_S = 0.001


def _probe_loop() -> int:
    acc = 0
    for i in range(1000):
        x = (i * 2654435761) & 0xFFFF
        while x:
            low = x & -x
            acc ^= low.bit_length()
            x ^= low
    return acc


class HostProbe:
    """Context manager: one sample on entry and exit, one per INTERVAL inside."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0  # probe time spent inside the block, to subtract

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _probe_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        if signum is not None:
            self.inside += dt

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def normalise(self, seconds: float) -> float:
        """seconds, measured while probing, at the reference host speed."""
        return seconds * REFERENCE_S / statistics.median(self.samples)
