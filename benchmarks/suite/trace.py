"""In-memory span recorder for the traced run.

Every span is the benchmark's own ``perf_counter_ns`` pair around one
public call into a layer — nothing inside ``src/repro`` is touched.
Spans are kept as ``[name, start_ns, end_ns, parent, op_id]`` rows in
one list and written to ``trace.json`` when the run ends.  A layer's
self time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns
from typing import Dict, List, Optional

from predictions import MOVES

NAME, START, END, PARENT, OP = range(5)


class Recorder:
    def __init__(self):
        self.spans: List[list] = []

    def begin(self, name: str, parent: int = -1, op_id: int = -1) -> int:
        """Open a span; returns its index (the parent id of children)."""
        spans = self.spans
        spans.append([name, perf_counter_ns(), 0, parent, op_id])
        return len(spans) - 1

    def end(self, index: int) -> int:
        """Close a span; returns its duration in ns."""
        span = self.spans[index]
        span[END] = perf_counter_ns()
        return span[END] - span[START]

    def empty_span_ns(self, samples: int = 2000) -> float:
        """Median cost of one begin/end pair with nothing inside — what
        the recorder itself adds per span (recorded on a scratch
        recorder so the trace is not polluted)."""
        scratch = Recorder()
        costs = []
        for _ in range(samples):
            started = perf_counter_ns()
            scratch.end(scratch.begin("empty"))
            costs.append(perf_counter_ns() - started)
        return statistics.median(costs)

    # ------------------------------------------------------------------

    def self_times(self) -> Dict[str, List[int]]:
        """Self time (ns) of every closed span, grouped by name."""
        spans = self.spans
        child_total = [0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if parent >= 0 and span[END]:
                child_total[parent] += span[END] - span[START]
        grouped: Dict[str, List[int]] = {}
        for index, span in enumerate(spans):
            if not span[END]:
                continue
            duration = span[END] - span[START]
            grouped.setdefault(span[NAME], []).append(
                max(duration - child_total[index], 0)
            )
        return grouped

    def durations(self, name: str) -> List[int]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name and s[END]]

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        document = {
            "meta": meta or {},
            "columns": ["name", "start_ns", "end_ns", "parent", "op_id"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def median_us(samples: List[int]) -> float:
    return statistics.median(samples) / 1e3 if samples else 0.0


def median_ms(samples: List[int]) -> float:
    return statistics.median(samples) / 1e6 if samples else 0.0


def layer_table(values: Dict[str, float], catalogue: List[dict]) -> str:
    """The per-layer summary: metric, unit, value and the end-to-end
    metric each is predicted to move (from ``BENCHMARK.json``'s
    catalogue plus the README's prediction table)."""
    lines = [f"{'per-layer metric':34} {'value':>14} {'unit':8} -> moves"]
    for entry in catalogue:
        name = entry["name"]
        lines.append(
            f"{name:34} {values.get(name, 0.0):14.4f} {entry['unit']:8} "
            f"-> {MOVES.get(name, '-')}"
        )
    return "\n".join(lines)
