"""Speed calibration: report timings at a reference machine speed.

The sandbox this benchmark has to run in flips between speed regimes
about 25 % apart, each lasting from a second to more than a whole run
(a fixed pure-Python loop measured 7.2 / 8.3 / 9.2 ms in consecutive
seconds).  A 20 s window samples a random mix of them, so raw medians
moved 10-13 % between runs of the same code — wider than every bound.

So the harness interleaves a small fixed kernel (integer arithmetic,
random dict lookups over ~1 MB, string allocation and sorting — the
mix a pure-Python engine is made of; run twice, second pass kept) with the measured work, every
``INTERVAL_S``, and scales each measured time by
``REFERENCE_S / kernel time around that moment``.  Timings are then "at
reference speed": the kernel ran in ``REFERENCE_S`` on this box's
undisturbed regime, so normalised and raw numbers agree when nothing
interferes.  Raw numbers are kept beside the normalised ones in the
results.  The kernel allocates no GC-tracked containers beyond two
lists, so it does not change when the collector runs.

The kernel only ever runs while the system under test is idle (between
ops of the one in-process client, between stages of a round, between
sub-phases of `http_serve`): sampled beside a busy server it would
measure the contention the server itself causes.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from typing import List, Tuple

#: Kernel time on the development box's undisturbed regime.
REFERENCE_S = 0.00135
INTERVAL_S = 0.05
#: A moment's speed is the median of this many samples around it.
NEIGHBOURS = 9

_rng = random.Random(20140324)
_KEYS = list(range(30000))
_rng.shuffle(_KEYS)
_TABLE = {key: key for key in range(30000)}
_PROBES = _KEYS[:4000]
_SMALL = _KEYS[:1500]


def kernel() -> float:
    """Run the fixed kernel once; returns its duration in seconds."""
    started = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i
    table = _TABLE
    for key in _PROBES:
        total += table[key]
    names = [str(key) for key in _SMALL]
    names.sort()
    dict.fromkeys(names)
    return time.perf_counter() - started


class SpeedTrace:
    """Kernel samples over time, and the speed factor at any moment."""

    def __init__(self):
        self.times: List[float] = []
        self.seconds: List[float] = []
        self._last = 0.0

    def sample(self) -> None:
        # Twice, keeping the second: the first pass pulls the kernel's
        # own data back into the caches the measured work just
        # emptied, so the sample reads the machine's speed and not the
        # engine's cache footprint.
        kernel()
        duration = kernel()
        now = time.perf_counter()
        self.times.append(now - duration / 2)
        self.seconds.append(duration)
        self._last = now

    def burst(self, count: int = 5) -> None:
        for _ in range(count):
            self.sample()

    def maybe_sample(self, now: float) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if now - self._last >= INTERVAL_S:
            self.sample()

    def factor_at(self, moment: float) -> float:
        """``REFERENCE_S / local kernel time`` around ``moment``."""
        if not self.times:
            return 1.0
        centre = bisect.bisect_left(self.times, moment)
        low = max(0, centre - NEIGHBOURS // 2)
        window = self.seconds[low:low + NEIGHBOURS]
        return REFERENCE_S / statistics.median(window)

    def factor_between(self, start: float, end: float) -> float:
        """Factor over an interval (set-up and restart rounds)."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        window = self.seconds[low:high]
        if len(window) < 3:
            return self.factor_at((start + end) / 2)
        return REFERENCE_S / statistics.median(window)

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.seconds) if self.seconds else 1.0


class StageClock:
    """Times consecutive stages of a set-up or restart round and samples
    the speed between them, so each stage is scaled by the speed the
    machine had while it ran.  Kernel time is not part of any stage."""

    def __init__(self, trace: SpeedTrace, samples: int = 9):
        self.trace = trace
        self.samples = samples
        self._begin = 0.0

    def start(self) -> None:
        # A round starts from a collected heap, as a fresh process
        # would: garbage of the previous round's store is not part of
        # what a restart or a set-up costs.
        gc.collect()
        self.trace.burst(self.samples)
        self._begin = time.perf_counter()

    def lap(self) -> Tuple[float, float]:
        """End the current stage and start the next one; returns the
        ended stage's ``(raw seconds, seconds at reference speed)``."""
        end = time.perf_counter()
        begin = self._begin
        self.trace.burst(self.samples)
        # The samples taken just before `begin` ended within ~3 kernel
        # times of it.
        margin = 4 * self.samples * REFERENCE_S
        factor = self.trace.factor_between(begin - margin, time.perf_counter())
        self._begin = time.perf_counter()
        return end - begin, (end - begin) * factor
