"""Per-query execution statistics: collectors, QueryStats, slow log.

A :class:`QueryCollector` rides along one query execution (pushed onto
the thread-local stack in :mod:`repro.obs.metrics`).  The physical
operators (:mod:`repro.sparql.physical`) open one
:class:`OperatorStats` record per executed operator (pattern step,
path step, filter); the store reports index scans into whichever
record is open.  ``finish()`` freezes everything into a
:class:`QueryStats`, which EXPLAIN ANALYZE renders and
``SelectResult.stats`` carries back to callers.

The counters also carry the engine's plan-cache activity for the
query (``plan_cache.hits`` / ``plan_cache.misses`` /
``plan_cache.evictions``) — see :meth:`QueryStats.plan_cache`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional


@dataclass
class OperatorStats:
    """Actual execution statistics of one plan operator.

    ``rows_scanned`` counts index entries *examined* (including ones a
    residual filter rejected); ``rows_matched`` counts entries that
    matched the scan pattern.  ``rows_out`` is the operator's output
    cardinality, which for a join may exceed either (row multiplication)
    — the invariant the property tests rely on is
    ``rows_matched <= rows_scanned``.
    """

    operator: str                  # "pattern" | "path" | "filter" | "join"
    detail: str                    # rendered pattern / expression text
    bound: str = ""                # Table 5-style bound-position list
    join_method: str = ""          # "NLJ" | "hash join" | "trie" | ""
    join_reason: str = ""          # thresholds behind the choice
    estimate: int = 0              # planner estimate (index prefix count)
    rows_in: int = 0               # input relation cardinality
    rows_out: int = 0              # output relation cardinality
    probes: int = 0                # index scans issued (NLJ: per row)
    range_scans: int = 0
    full_scans: int = 0
    rows_scanned: int = 0
    rows_matched: int = 0
    index_specs: List[str] = field(default_factory=list)
    frontier_sizes: List[int] = field(default_factory=list)
    #: A trie join's ``[variable, candidates, survivors]`` per level.
    levels: List[list] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def scan_kind(self) -> str:
        if self.range_scans and not self.full_scans:
            return "index range scan"
        if self.full_scans and not self.range_scans:
            return "full index scan"
        if self.range_scans and self.full_scans:
            return "mixed scan"
        return "no scan"

    def render(self, step: int) -> str:
        """One EXPLAIN ANALYZE line: estimates next to actuals."""
        index = "+".join(f"{spec}M" for spec in self.index_specs) or "-"
        parts = [f"{step}: {self.detail}"]
        if self.bound:
            parts.append(f"[{self.bound}]")
        parts.append(index)
        method = f", {self.join_method}" if self.join_method else ""
        parts.append(f"({self.scan_kind}{method})")
        parts.append(f"est={self.estimate}")
        parts.append(f"in={self.rows_in}")
        parts.append(f"out={self.rows_out}")
        parts.append(
            f"scans={self.probes} scanned={self.rows_scanned} "
            f"matched={self.rows_matched}"
        )
        if self.frontier_sizes:
            parts.append(f"frontier={self.frontier_sizes}")
        parts.append(f"time={self.seconds * 1000:.3f}ms")
        line = "  ".join(parts)
        if self.join_reason:
            line += f"\n   `- {self.join_reason}"
        for variable, candidates, survivors in self.levels:
            line += (
                f"\n   `- {variable}: candidates={candidates} "
                f"survivors={survivors}"
            )
        return line

    def to_dict(self) -> Dict:
        return {
            "operator": self.operator,
            "detail": self.detail,
            "bound": self.bound,
            "join_method": self.join_method,
            "join_reason": self.join_reason,
            "estimate": self.estimate,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "probes": self.probes,
            "range_scans": self.range_scans,
            "full_scans": self.full_scans,
            "rows_scanned": self.rows_scanned,
            "rows_matched": self.rows_matched,
            "index_specs": list(self.index_specs),
            "frontier_sizes": list(self.frontier_sizes),
            "levels": [list(level) for level in self.levels],
            "seconds": self.seconds,
        }


@dataclass
class QueryStats:
    """Everything observed while executing one query."""

    wall_seconds: float
    rows: int
    operators: List[OperatorStats]
    counters: Dict[str, int]
    #: The span tree of this execution when tracing was on (a
    #: :class:`repro.obs.trace.Trace`), else None.
    trace: Optional[object] = None

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def plan_cache(self) -> Dict[str, int]:
        """This query's plan-cache activity (hit/miss/eviction counts)."""
        return {
            "hits": self.counter("plan_cache.hits"),
            "misses": self.counter("plan_cache.misses"),
            "evictions": self.counter("plan_cache.evictions"),
        }

    def join_methods(self) -> List[str]:
        return [op.join_method for op in self.operators if op.join_method]

    def summary(self) -> str:
        scans = sum(op.probes for op in self.operators)
        scanned = sum(op.rows_scanned for op in self.operators)
        joins = self.join_methods()
        tries = sum(op.operator == "join" for op in self.operators)
        return (
            f"{self.rows} rows in {self.wall_seconds * 1000:.3f}ms; "
            f"{len(self.operators)} operators, {scans} index scans, "
            f"{scanned} entries scanned; joins: "
            f"{joins.count('NLJ')} NLJ / {joins.count('hash join')} hash / "
            f"{tries} trie; "
            f"filter pushdown hits: {self.counter('filter.pushdown')}"
        )

    def to_dict(self) -> Dict:
        document = {
            "wall_seconds": self.wall_seconds,
            "rows": self.rows,
            "operators": [op.to_dict() for op in self.operators],
            "counters": dict(self.counters),
        }
        if self.trace is not None:
            document["trace"] = self.trace.to_dict()
        return document


class QueryCollector:
    """Accumulates operator records and counters for one execution.

    Operator records form a stack because operators can nest (an EXISTS
    filter evaluates a whole group while the filter record is open);
    scans always attribute to the innermost open record.  A collector is
    used by a single thread (the one running the query), so it needs no
    locking of its own.
    """

    def __init__(self):
        self.operators: List[OperatorStats] = []
        self.counters: Dict[str, int] = {}
        self._open: List[OperatorStats] = []
        self._starts: List[float] = []

    # -- counters ------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- operator lifecycle --------------------------------------------

    def begin_operator(self, operator: str, detail: str, **fields) -> OperatorStats:
        record = OperatorStats(operator=operator, detail=detail, **fields)
        self.operators.append(record)
        self._open.append(record)
        self._starts.append(time.perf_counter())
        return record

    def end_operator(self, rows_out: int) -> None:
        record = self._open.pop()
        record.seconds = time.perf_counter() - self._starts.pop()
        record.rows_out = rows_out

    # -- reports from the store / path engine --------------------------

    def record_scan(
        self, spec: str, prefix_length: int, scanned: int, matched: int
    ) -> None:
        self.inc("index.range_scans" if prefix_length else "index.full_scans")
        self.inc("index.rows_scanned", scanned)
        self.inc("index.rows_matched", matched)
        if not self._open:
            return
        record = self._open[-1]
        record.probes += 1
        if prefix_length:
            record.range_scans += 1
        else:
            record.full_scans += 1
        record.rows_scanned += scanned
        record.rows_matched += matched
        if spec not in record.index_specs:
            record.index_specs.append(spec)

    def record_frontier(self, size: int) -> None:
        self.inc("path.hops")
        if self._open:
            self._open[-1].frontier_sizes.append(size)

    # -- completion ----------------------------------------------------

    def finish(self, wall_seconds: float, rows: int) -> QueryStats:
        return QueryStats(
            wall_seconds=wall_seconds,
            rows=rows,
            operators=list(self.operators),
            counters=dict(self.counters),
        )


@dataclass
class SlowQueryRecord:
    query: str
    seconds: float
    rows: int
    when: float  # time.time() timestamp

    def to_dict(self) -> Dict:
        return {
            "query": self.query,
            "seconds": self.seconds,
            "rows": self.rows,
            "when": self.when,
        }


class SlowQueryLog:
    """A bounded, thread-safe log of queries slower than a threshold.

    ``threshold_seconds=None`` disables the log (the engine then skips
    recording entirely).
    """

    def __init__(
        self,
        threshold_seconds: Optional[float] = None,
        capacity: int = 100,
    ):
        self.threshold_seconds = threshold_seconds
        self._entries: Deque[SlowQueryRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.threshold_seconds is not None

    def record(self, query: str, seconds: float, rows: int) -> bool:
        """Record if over threshold; returns whether it was logged."""
        if self.threshold_seconds is None or seconds < self.threshold_seconds:
            return False
        with self._lock:
            self._entries.append(
                SlowQueryRecord(query, seconds, rows, time.time())
            )
        return True

    @property
    def entries(self) -> List[SlowQueryRecord]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class ExplainAnalysis:
    """The result of ``explain(..., analyze=True)``.

    Iterates as rendered text lines (like static EXPLAIN) while keeping
    the structured per-operator records and the executed result around
    for programmatic assertions.
    """

    def __init__(self, stats: QueryStats, result=None):
        self.stats = stats
        self.result = result

    @property
    def steps(self) -> List[OperatorStats]:
        return self.stats.operators

    @property
    def trace(self):
        """The span tree of the analyzed execution, if traced."""
        return self.stats.trace

    @property
    def lines(self) -> List[str]:
        rendered = [
            op.render(number)
            for number, op in enumerate(self.stats.operators, start=1)
        ]
        rendered.append(f"-- {self.stats.summary()}")
        if self.stats.trace is not None:
            rendered.append(f"-- trace {self.stats.trace.trace_id} --")
            rendered.extend(self.stats.trace.render().splitlines())
        return rendered

    def __iter__(self):
        return iter(self.lines)

    def render(self) -> str:
        return "\n".join(self.lines)

    __str__ = render

    def __repr__(self) -> str:
        return (
            f"ExplainAnalysis(operators={len(self.stats.operators)}, "
            f"rows={self.stats.rows})"
        )
