"""The metrics registry: counters, gauges and timers for the engine.

Two reporting sinks share one set of instrumentation points:

* a process-wide :class:`MetricsRegistry` (thread-safe, disabled by
  default) that accumulates counters across queries — what
  ``GET /metrics`` and the benchmark harness read; and
* an optional per-query collector (see :mod:`repro.obs.query`) pushed
  onto a thread-local stack for the duration of one execution — what
  EXPLAIN ANALYZE and ``QueryStats`` are built from.

Instrumented code calls the module-level helpers (``inc``,
``record_scan``, ...), which route to whichever sinks are active.  When
neither is, every helper returns after a single flag/attribute check,
and the hot inner loops in :mod:`repro.store.index` skip their counting
variants entirely — observability is a true no-op unless switched on.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "MetricsRegistry",
    "TimerStats",
    "enable",
    "disable",
    "is_enabled",
    "enabled",
    "registry",
    "reset",
    "snapshot",
    "is_active",
    "push_collector",
    "pop_collector",
    "current_collector",
    "collect",
    "inc",
    "set_gauge",
    "gauge_max",
    "observe",
    "record_scan",
    "record_join",
    "record_frontier",
]


#: Histogram bucket upper bounds: log-spaced (factor 2) from 1 µs.  28
#: finite buckets reach ~134 s; anything slower lands in the implicit
#: overflow (``+Inf``) bucket.  Fixed bounds keep every timer at a
#: constant 29 ints of memory regardless of observation count.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(1e-6 * (2 ** i) for i in range(28))


class TimerStats:
    """Bounded-memory latency histogram for one timer.

    Tracks count / total / min / max exactly, plus a fixed array of
    log-spaced bucket counts (:data:`BUCKET_BOUNDS` + one overflow
    bucket) from which :meth:`quantile` estimates p50/p95/p99.  The
    estimate is exact up to bucket granularity: it always lies within
    the bucket that contains the true quantile (the property the
    Hypothesis suite checks), i.e. off by at most one bucket boundary.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: Per-bucket observation counts; index len(BUCKET_BOUNDS) is
        #: the overflow (+Inf) bucket.
        self.buckets: List[int] = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)
        self.buckets[bisect_left(BUCKET_BOUNDS, seconds)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 < q <= 1) from the buckets.

        Returns the upper bound of the bucket holding the rank-``q``
        observation, tightened by the exact ``max`` — so the estimate
        never leaves the true quantile's bucket and never exceeds the
        largest observation.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(BUCKET_BOUNDS):
                    return min(BUCKET_BOUNDS[index], self.max)
                return self.max
        return self.max  # unreachable: cumulative == count >= rank

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def bucket_pairs(self) -> List[Tuple[object, int]]:
        """Non-empty ``(upper_bound_or_"+Inf", count)`` pairs, ascending.

        This is the JSON-safe shape ``to_dict`` embeds and the
        Prometheus renderer accumulates into cumulative ``le`` series.
        """
        pairs: List[Tuple[object, int]] = []
        for index, bucket_count in enumerate(self.buckets):
            if not bucket_count:
                continue
            if index < len(BUCKET_BOUNDS):
                pairs.append((BUCKET_BOUNDS[index], bucket_count))
            else:
                pairs.append(("+Inf", bucket_count))
        return pairs

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "min_seconds": self.min or 0.0,
            "max_seconds": self.max or 0.0,
            "p50_seconds": self.p50,
            "p95_seconds": self.p95,
            "p99_seconds": self.p99,
            "buckets": [list(pair) for pair in self.bucket_pairs()],
        }


class MetricsRegistry:
    """A thread-safe bag of named counters, gauges and timers.

    All mutation happens under one lock; reads used on the hot path
    (none currently) would tolerate the GIL, but correctness of
    ``+=`` under a ThreadPoolExecutor requires the lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, TimerStats] = {}

    # -- counters ------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    @property
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def record_scan_counts(self, prefix_length: int, scanned: int, matched: int) -> None:
        """Batch the per-scan counters under a single lock acquisition.

        ``record_scan`` fires once per index scan — with nested-loop
        joins that is once per probe row, so three separate ``inc``
        calls here would triple the lock traffic on the hottest path.
        """
        with self._lock:
            counters = self._counters
            kind = "index.range_scans" if prefix_length else "index.full_scans"
            counters[kind] = counters.get(kind, 0) + 1
            counters["index.rows_scanned"] = (
                counters.get("index.rows_scanned", 0) + scanned
            )
            counters["index.rows_matched"] = (
                counters.get("index.rows_matched", 0) + matched
            )

    # -- gauges --------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Keep the maximum ever observed (e.g. peak frontier size)."""
        with self._lock:
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = value

    def gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    # -- timers --------------------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            stats = self._timers.get(name)
            if stats is None:
                stats = self._timers[name] = TimerStats()
            stats.observe(seconds)

    def timer_stats(self, name: str) -> Optional[TimerStats]:
        return self._timers.get(name)

    @contextmanager
    def timer(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- lifecycle -----------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()

    def snapshot(self) -> Dict[str, Dict]:
        """A point-in-time copy, JSON-ready (``GET /metrics`` body)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: stats.to_dict()
                    for name, stats in self._timers.items()
                },
            }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, timers={len(self._timers)})"
        )


# ----------------------------------------------------------------------
# Global registry state
# ----------------------------------------------------------------------

_REGISTRY = MetricsRegistry()
_ENABLED = False

_TLS = threading.local()


def enable() -> MetricsRegistry:
    """Switch global metrics collection on; returns the registry."""
    global _ENABLED
    _ENABLED = True
    return _REGISTRY


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    return _ENABLED


@contextmanager
def enabled(fresh: bool = False):
    """Temporarily enable global metrics (optionally reset first)."""
    global _ENABLED
    previous = _ENABLED
    if fresh:
        _REGISTRY.reset()
    _ENABLED = True
    try:
        yield _REGISTRY
    finally:
        _ENABLED = previous


def registry() -> MetricsRegistry:
    return _REGISTRY


def reset() -> None:
    _REGISTRY.reset()


def snapshot() -> Dict[str, Dict]:
    return _REGISTRY.snapshot()


# ----------------------------------------------------------------------
# Per-query collector stack (thread-local)
# ----------------------------------------------------------------------


def _stack() -> List:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def push_collector(collector) -> None:
    _stack().append(collector)


def pop_collector():
    return _stack().pop()


def current_collector():
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def collect(collector):
    """Route instrumentation on this thread into ``collector``."""
    push_collector(collector)
    try:
        yield collector
    finally:
        pop_collector()


def is_active() -> bool:
    """True when any sink (registry or collector) would see reports.

    The store's scan loops use this to pick the counting code path;
    everything else just calls the helpers below, which individually
    no-op when nothing is listening.
    """
    return _ENABLED or bool(getattr(_TLS, "stack", None))


# ----------------------------------------------------------------------
# Instrumentation helpers (route to active sinks)
# ----------------------------------------------------------------------


def inc(name: str, amount: int = 1) -> None:
    if _ENABLED:
        _REGISTRY.inc(name, amount)
    collector = current_collector()
    if collector is not None:
        collector.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    if _ENABLED:
        _REGISTRY.set_gauge(name, value)


def gauge_max(name: str, value: float) -> None:
    if _ENABLED:
        _REGISTRY.gauge_max(name, value)


def observe(name: str, seconds: float) -> None:
    if _ENABLED:
        _REGISTRY.observe(name, seconds)


def record_scan(spec: str, prefix_length: int, scanned: int, matched: int) -> None:
    """One index scan completed (called from SemanticIndex.range_scan)."""
    if _ENABLED:
        _REGISTRY.record_scan_counts(prefix_length, scanned, matched)
    collector = current_collector()
    if collector is not None:
        collector.record_scan(spec, prefix_length, scanned, matched)


def record_join(method: str) -> None:
    """A join strategy was chosen for one executed pattern step."""
    name = {
        "hash join": "join.hash",
        "NLJ": "join.nlj",
        "trie": "join.trie",
    }.get(method, "join.other")
    inc(name)


def record_frontier(size: int) -> None:
    """A path-evaluation frontier advanced one hop."""
    if _ENABLED:
        _REGISTRY.inc("path.hops")
        _REGISTRY.inc("path.frontier_nodes", size)
        _REGISTRY.gauge_max("path.frontier_max", size)
    collector = current_collector()
    if collector is not None:
        collector.record_frontier(size)
