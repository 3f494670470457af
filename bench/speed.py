"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by up to half within a
minute, and flips between faster and slower states within milliseconds;
every piece of pure-Python code slows down and speeds up together.  A run
therefore times a fixed reference loop every ``PERIOD_S`` of wall time,
also in the middle of a long request (from a SIGALRM handler), and between
blocks of requests.  Each block's times, less the time spent sampling, are
scaled by ``REF_S / (mean reference time of the samples taken from WINDOW_S
before the block to WINDOW_S after it)``.  The window is short against the
drift and long enough to average the fast flips.  The result reads as
seconds on a machine where the reference loop takes ``REF_S``: a change to
polytx moves it, a change in the host's speed mostly does not.  The
reference loop uses no polytx code.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

REF_S = 0.00075  # the reference loop's time at reference speed
REPEATS = 3  # a sample is the median of this many loops, so one preemption does not count
PERIOD_S = 0.1  # wall time between samples taken inside requests
BLOCK_S = 0.25  # requests run in blocks of at least this long between samples
WINDOW_S = 1.5  # samples this close to a block calibrate it


def _reference_loop() -> int:
    """A fixed mix of integer arithmetic, tuples, dict and list work and calls."""
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(400):
        key = (i * 7919) % 1009, i & 255
        counts[key] = counts.get(key, 0) + 1
        acc += max(key) - min(key)
    return acc + len(sorted(counts.items()))


def _timed() -> float:
    """Seconds the reference loop takes now (median of REPEATS, without GC)."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = clock()
            _reference_loop()
            times.append(clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Meter:
    """Samples the reference loop for as long as it is entered.

    ``samples`` holds (clock reading, reference loop seconds) of every
    sample in order; ``paused`` is the wall time spent taking them, which
    the caller subtracts from what it times.  Factors are asked for after
    ``settle``, once every block has samples on both sides.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def quiet(self):
        """No samples inside what runs here, only the caller's own."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def settle(self) -> None:
        """Samples for WINDOW_S more, so the last block has samples after it."""
        end = time.perf_counter() + WINDOW_S
        with self.quiet():
            while time.perf_counter() < end:
                self.sample()

    def sample(self) -> None:
        if self._busy:  # a tick that lands inside the caller's own sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.samples.append((t0, _timed()))
            self.paused += time.perf_counter() - t0
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def factor(self, start: float, end: float) -> float:
        """Factor from measured to reference seconds for what ran between
        the clock readings ``start`` and ``end``."""
        near = [ref for t, ref in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REF_S / statistics.fmean(near)
