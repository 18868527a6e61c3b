"""Shared pieces of the benchmark harness: paths, the metric catalogue,
percentile summaries, dataset/store construction and timed loops."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
from typing import Dict, List, Sequence

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
#: Scratch space (durable store directories, trace files); inside the
#: checkout, ignored by git, removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".bench_work")
FSYNC_POLICY = "always"
SETUP_ROUNDS = 3
WARMUP_SECONDS = 2.0


def bootstrap() -> None:
    """Make ``repro`` importable from the checkout's ``src``."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def catalogue() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def work_dir(label: str) -> str:
    """A fresh scratch directory owned by this process."""
    path = os.path.join(WORK_ROOT, f"{os.getpid()}-{label}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def cleanup_work() -> None:
    """Remove every scratch directory this process created."""
    prefix = f"{os.getpid()}-"
    if os.path.isdir(WORK_ROOT):
        for name in os.listdir(WORK_ROOT):
            if name.startswith(prefix):
                shutil.rmtree(os.path.join(WORK_ROOT, name), ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def top_percentile(n: int) -> float:
    """The highest of p95/p99/p99.9 that still has >= 10 samples beyond
    it (0 when even p95 does not)."""
    best = 0.0
    for q in (0.95, 0.99, 0.999):
        if n * (1.0 - q) >= 10:
            best = q
    return best


def summarize_ms(seconds: Sequence[float]) -> Dict[str, float]:
    """Median, p95 and the highest supported percentile, in ms."""
    ordered = sorted(seconds)
    n = len(ordered)
    top_q = top_percentile(n)
    return {
        "n": n,
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
        "top_q": top_q,
        "top_ms": percentile(ordered, top_q) * 1e3 if top_q else 0.0,
        "max_ms": ordered[-1] * 1e3 if ordered else 0.0,
    }


def rounds_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median over a few rounds, with min/max (set-up, restart)."""
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


# ----------------------------------------------------------------------
# Dataset and stores
# ----------------------------------------------------------------------


def build_graph(egos: int, dataset_seed: int):
    from repro.datasets.twitter import (
        TwitterConfig, connected_tag, generate_twitter, hub_vertex,
    )

    graph = generate_twitter(TwitterConfig(egos=egos, seed=dataset_seed))
    return graph, connected_tag(graph), hub_vertex(graph)


def dataset_detail(graph, tag: str, hub: int, quads: Dict[str, int]) -> dict:
    """The dataset line of every result: sizes are stated, not assumed."""
    import workloads as wl

    return {
        "dataset_seed": wl.DATASET_SEED,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "quads": quads,
        "connected_tag": tag,
        "hub": hub,
    }


class LoadTimes:
    """Where store builds spent their time, raw and at reference speed
    (see ``calibrate.py``)."""

    def __init__(self):
        self.transform_s = 0.0
        self.bulk_load_s = 0.0
        self.raw_s = 0.0
        self.quads = 0

    @property
    def seconds(self) -> float:
        return self.transform_s + self.bulk_load_s

    @property
    def quads_per_s(self) -> float:
        return self.quads / self.seconds if self.seconds else 0.0


def load_store(store, graph, clock, times: LoadTimes, rec=None, parent: int = -1) -> None:
    """``PropertyGraphRdfStore.load`` split at its two public calls so
    transform and bulk load are timed (and traced) separately.  The
    caller has started ``clock``; two stages are lapped here."""
    span = rec.begin("transform", parent) if rec else -1
    quads = [q for _, q in store.transformer.transform_partitioned(graph)]
    if rec:
        rec.end(span)
    raw, transform_s = clock.lap()
    times.raw_s += raw
    span = rec.begin("bulk_load", parent) if rec else -1
    store.network.bulk_load("pg", quads)
    if rec:
        rec.end(span)
    raw, bulk_load_s = clock.lap()
    times.raw_s += raw
    times.transform_s += transform_s
    times.bulk_load_s += bulk_load_s
    times.quads += len(quads)


def run_op(store, op):
    """One call into the store's public query API."""
    if op.lang == "pgql":
        return store.engine.pgql(op.text)
    if op.lang == "ask":
        return store.engine.ask(op.text)
    if op.lang == "update":
        return store.engine.update(op.text)
    return store.engine.select(op.text)


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------


def metric_values(entries: List[dict], values: Dict[str, float]) -> Dict[str, dict]:
    """Every catalogue metric with its unit (0.0 when the workload does
    not exercise that layer)."""
    return {
        entry["name"]: {
            "value": float(values.get(entry["name"], 0.0)),
            "unit": entry["unit"],
        }
        for entry in entries
    }
