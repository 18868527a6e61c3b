#!/usr/bin/env python
"""Pipeline guards that need no baseline engine.

1. **Pages stay compact** (``--table9``) — the measured packed bytes
   per indexed quad of the columnar index pages stays under
   ``REPRO_PAGE_BYTES_PER_QUAD`` (default 24; raw keys are 32) for
   both NG and SP stores, and the figures are merged into
   ``BENCH_results.json`` under ``"table9_pages"``.
2. **The PGQL front-end is free** (``--pgql-parity``) — compiling the
   Cypher-subset MATCH language onto the shared algebra must not cost
   execution latency: per-query medians of the PGQL EQ4/EQ8
   formulations stay within ``REPRO_PGQL_PARITY`` (default 1.2x) of
   the hand-written SPARQL texts on the NG store.  Both sides hit the
   same plan cache after warmup, so this measures the executor, not
   the parser.  Figures are merged under ``"pgql_parity"``.

End-to-end performance is measured by the repository benchmark
(``BENCHMARK.json``, ``benchmarks/suite/``); LIMIT early termination
is held as a scan count by
``tests/test_sparql_physical.py::TestEarlyTermination``.

Usage::

    python benchmarks/pipeline_guard.py --table9
    python benchmarks/pipeline_guard.py --pgql-parity

Knobs: ``REPRO_SCALE`` (ego networks, default 24),
``REPRO_PIPELINE_ROUNDS`` (timed rounds per query, default 9),
``REPRO_PAGE_BYTES_PER_QUAD``, ``REPRO_PGQL_PARITY``,
``REPRO_BENCH_RESULTS`` (results path; empty string disables).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.bench.harness import build_stores

MODEL = "NG"


def _rounds() -> int:
    return int(os.environ.get("REPRO_PIPELINE_ROUNDS", "9"))


def _interleaved_medians(
    first: Callable[[], object], second: Callable[[], object], rounds: int
) -> Tuple[float, float]:
    """Median seconds for two runners, timed in alternating rounds.

    Interleaving (rather than timing one block after the other) cancels
    slow drift — CPU frequency scaling, cache warming — that would
    otherwise bias a sub-millisecond comparison.
    """
    first()  # warm the store / caches
    second()
    first_samples: List[float] = []
    second_samples: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        first()
        first_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        second()
        second_samples.append(time.perf_counter() - start)
    return statistics.median(first_samples), statistics.median(second_samples)


def check_table9_pages() -> int:
    ctx = build_stores()
    limit = float(os.environ.get("REPRO_PAGE_BYTES_PER_QUAD", "24.0"))
    entry: Dict[str, Dict[str, float]] = {}
    failures: List[str] = []
    print(f"table9 page-compactness gate: packed bytes/quad/index "
          f"must stay under {limit:.1f} (raw keys: 32)")
    for model in ("NG", "SP"):
        report = ctx.stores[model].storage_report()
        per_quad = report.page_bytes_per_quad
        entry[model] = {
            "packed_bytes": report.page_total,
            "quads": report.quads,
            "indexes": len(report.page_bytes),
            "bytes_per_quad_per_index": round(per_quad, 3),
        }
        verdict = "ok" if 0 < per_quad < limit else "TOO LARGE"
        print(f"  {model}: packed={report.page_total / 2**20:7.3f}MB "
              f"quads={report.quads} bytes/quad/index={per_quad:6.2f} "
              f"{verdict}")
        if not 0 < per_quad < limit:
            failures.append(f"{model} ({per_quad:.2f})")
    _merge_results("table9_pages", entry)
    if failures:
        print(f"FAIL: packed pages exceed {limit:.1f} bytes/quad on: "
              f"{', '.join(failures)}")
        return 1
    print("PASS: columnar pages beat raw key storage on every store")
    return 0


def _merge_results(key: str, entry: Dict) -> None:
    """Merge one measurement into BENCH_results.json (never clobber)."""
    target = os.environ.get("REPRO_BENCH_RESULTS")
    if target == "":
        return
    if target is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        target = os.path.join(root, "BENCH_results.json")
    document: Dict = {}
    if os.path.exists(target):
        try:
            with open(target, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            document = {}
    document[key] = entry
    document.setdefault(
        "generated_at",
        time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"{key} results merged into {target}")


#: KV-heavy queries where the compiled shape differs most from the
#: hand-written text (EQ4 node KVs, EQ8 edge KVs behind GRAPH ?e).
PGQL_PARITY_QUERIES: Tuple[str, ...] = ("EQ4", "EQ8")


def check_pgql_parity() -> int:
    from repro.pgql import pgql_experiment_queries

    ctx = build_stores()
    store = ctx.stores[MODEL]
    engine = store.engine
    sparql_suite = store.queries.experiment_queries(ctx.tag, ctx.hub_iri)
    pgql_suite = pgql_experiment_queries(ctx.tag, ctx.hub_id)
    rounds = _rounds()
    allowed = float(os.environ.get("REPRO_PGQL_PARITY", "1.2"))
    print(f"pgql parity gate: {', '.join(PGQL_PARITY_QUERIES)}, median of "
          f"{rounds} rounds, pgql/sparql must stay under {allowed:.2f}x")
    entry: Dict[str, Dict[str, float]] = {}
    failures: List[str] = []
    for name in PGQL_PARITY_QUERIES:
        sparql_text = sparql_suite[name]
        pgql_text = pgql_suite[name]

        def run_sparql(text=sparql_text):
            return engine.select(text)

        def run_pgql(text=pgql_text):
            return engine.pgql(text)

        rows = len(run_sparql().rows)
        if len(run_pgql().rows) != rows:
            print(f"  {name:6s} PGQL/SPARQL row counts differ — parity "
                  "timing would be meaningless")
            failures.append(f"{name} (rows differ)")
            continue
        sparql_s, pgql_s = _interleaved_medians(run_sparql, run_pgql, rounds)
        ratio = pgql_s / sparql_s if sparql_s else 1.0
        if ratio > allowed:
            # Reproduce before failing: interleaving cancels drift but
            # not a one-off scheduler burst.
            sparql_s, pgql_s = _interleaved_medians(
                run_sparql, run_pgql, rounds * 2
            )
            ratio = pgql_s / sparql_s if sparql_s else 1.0
        verdict = "ok" if ratio <= allowed else "REGRESSED"
        print(f"  {name:6s} sparql={sparql_s * 1e3:8.3f}ms "
              f"pgql={pgql_s * 1e3:8.3f}ms ratio={ratio:5.2f} {verdict}")
        entry[name] = {
            "sparql_ms": round(sparql_s * 1e3, 4),
            "pgql_ms": round(pgql_s * 1e3, 4),
            "ratio": round(ratio, 3),
            "rows": rows,
        }
        if ratio > allowed:
            failures.append(f"{name} ({ratio:.2f}x)")
    entry["allowed"] = allowed
    _merge_results("pgql_parity", entry)
    if failures:
        print(f"FAIL: compiled PGQL exceeded {allowed:.2f}x SPARQL latency "
              f"on: {', '.join(failures)}")
        return 1
    print("PASS: the PGQL front-end matches hand-written SPARQL latency")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--table9",
        action="store_true",
        help="check packed page bytes-per-quad and record the Table 9 "
        "page figures in BENCH_results.json",
    )
    mode.add_argument(
        "--pgql-parity",
        action="store_true",
        help="check compiled-PGQL vs hand-written-SPARQL latency parity "
        "on the KV-heavy EQ4/EQ8 queries",
    )
    args = parser.parse_args(argv)
    if args.table9:
        return check_table9_pages()
    return check_pgql_parity()


if __name__ == "__main__":
    sys.exit(main())
