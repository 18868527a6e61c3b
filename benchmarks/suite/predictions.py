"""Which end-to-end metric each per-layer metric is predicted to move.

Written down before measuring (README.md, "How the metrics interact").
One row per per-layer metric of ``BENCHMARK.json``:
``(name, unit, better, layer, moves, unchanged)`` — ``moves`` names the
end-to-end metric and workload a change in this number should show up
in, ``unchanged`` the workloads where the prediction is no change.
"""

from __future__ import annotations

LAYERS = (
    # repro.pgql
    ("pgql.parse_us", "us", "lower", "repro.pgql",
     "p50_ms/ops_s @ point_lookup (x miss rate)", "scan_analytics"),
    ("pgql.compile_us", "us", "lower", "repro.pgql",
     "p50_ms/ops_s @ point_lookup (x miss rate)", "scan_analytics"),
    # repro.sparql.parser
    ("sparql.parse_us", "us", "lower", "repro.sparql.parser",
     "p50_ms/ops_s @ point_lookup; p50_ms @ durable_lifecycle", "scan_analytics"),
    ("sparql.parse_update_us", "us", "lower", "repro.sparql.parser",
     "p95_ms/ops_s @ durable_lifecycle (writes)", "read-only workloads"),
    # repro.sparql.algebra / optimize / physical
    ("algebra.lower_us", "us", "lower", "repro.sparql.algebra",
     "p50_ms @ point_lookup; p50_ms @ durable_lifecycle", "scan_analytics, http_serve"),
    ("optimize.rewrite_us", "us", "lower", "repro.sparql.optimize",
     "p50_ms @ point_lookup; p50_ms @ durable_lifecycle", "scan_analytics, http_serve"),
    ("physical.compile_us", "us", "lower", "repro.sparql.physical",
     "p50_ms @ point_lookup; p50_ms @ durable_lifecycle", "scan_analytics, http_serve"),
    # repro.sparql.plancache
    ("plancache.hit_rate", "ratio", "higher", "repro.sparql.plancache",
     "p50_ms/ops_s @ point_lookup", "scan_analytics (-> 1.0)"),
    ("plancache.evictions", "count", "lower", "repro.sparql.plancache",
     "p50_ms/ops_s @ point_lookup", "scan_analytics, http_serve (0)"),
    # repro.sparql.engine
    ("engine.overhead_us", "us", "lower", "repro.sparql.engine",
     "p50_ms @ point_lookup, http_serve", "scan_analytics"),
    ("engine.miss_penalty_us", "us", "lower", "repro.sparql.engine",
     "p50_ms @ point_lookup; p50_ms @ durable_lifecycle", "scan_analytics, http_serve"),
    ("frontend.share", "ratio", "lower", "repro.pgql + repro.sparql front end",
     "p50_ms @ point_lookup", "scan_analytics (< 0.05)"),
    # repro.sparql.executor + physical
    ("executor.execute_ms", "ms", "lower", "repro.sparql.executor",
     "ops_s/p95_ms @ scan_analytics", "point_lookup"),
    ("executor.rows_scanned_per_result", "ratio", "lower", "repro.sparql.executor",
     "ops_s @ scan_analytics", "point_lookup"),
    ("executor.batches", "count", "lower", "repro.sparql.physical",
     "ops_s @ scan_analytics", "point_lookup"),
    # repro.store.index
    ("index.scan_rows_s", "1/s", "higher", "repro.store.index",
     "ops_s @ scan_analytics", "point_lookup"),
    ("index.probe_us", "us", "lower", "repro.store.index",
     "p50_ms @ point_lookup", "scan_analytics"),
    ("index.insert_us", "us", "lower", "repro.store.index",
     "p95_ms @ durable_lifecycle; load_quads_s", "read-only workloads"),
    ("index.delete_us", "us", "lower", "repro.store.index",
     "p95_ms @ durable_lifecycle", "read-only workloads"),
    # repro.store.pages
    ("pages.bytes_per_quad.NG", "B", "lower", "repro.store.pages",
     "page_bytes_per_quad, peak_rss_mb @ all", "-"),
    ("pages.bytes_per_quad.SP", "B", "lower", "repro.store.pages",
     "peak_rss_mb @ scan_analytics", "NG-only workloads (0)"),
    ("pages.thawed_per_write", "count", "lower", "repro.store.pages",
     "p95_ms/ops_s @ durable_lifecycle", "read-only workloads (0)"),
    # repro.store.snapshot
    ("snapshot.pin_us", "us", "lower", "repro.store.snapshot",
     "p50_ms @ point_lookup", "scan_analytics"),
    ("snapshot.publish_ms", "ms", "lower", "repro.store.snapshot",
     "p95_ms @ durable_lifecycle", "read-only workloads (0)"),
    # repro.store.values
    ("values.encode_terms_s", "1/s", "higher", "repro.store.values",
     "load_quads_s, setup_s @ all", "query windows"),
    ("values.decode_terms_s", "1/s", "higher", "repro.store.values",
     "ops_s @ scan_analytics (EQ4); p95_ms @ http_serve (wide)", "point_lookup"),
    # repro.core.transform
    ("transform.quads_s", "quads/s", "higher", "repro.core.transform",
     "load_quads_s, setup_s @ all", "query windows"),
    # repro.store.network
    ("network.bulk_load_quads_s", "quads/s", "higher", "repro.store.network",
     "load_quads_s, setup_s @ all", "query windows"),
    ("network.update_apply_ms", "ms", "lower", "repro.store.network",
     "p95_ms/ops_s @ durable_lifecycle", "read-only workloads (0)"),
    # repro.store.wal
    ("wal.append_us", "us", "lower", "repro.store.wal",
     "p95_ms @ durable_lifecycle; load_quads_s @ durable_lifecycle", "in-memory workloads (0)"),
    ("wal.fsync_ms", "ms", "lower", "repro.store.wal",
     "p95_ms/ops_s @ durable_lifecycle", "in-memory workloads (0)"),
    ("wal.bytes_per_quad", "B", "lower", "repro.store.wal",
     "p95_ms @ durable_lifecycle; durable.disk_bytes_per_quad", "in-memory workloads (0)"),
    ("wal.fsyncs_per_write", "count", "lower", "repro.store.wal",
     "p95_ms/ops_s @ durable_lifecycle", "in-memory workloads (0)"),
    # repro.store.durable / persist
    ("durable.journal_overhead_ms", "ms", "lower", "repro.store.durable",
     "p95_ms/ops_s @ durable_lifecycle", "in-memory workloads (0)"),
    ("durable.checkpoint_s", "s", "lower", "repro.store.durable",
     "setup_s, ops_s @ durable_lifecycle", "in-memory workloads (0)"),
    ("durable.recover_s", "s", "lower", "repro.store.durable",
     "restart_to_first_query_s @ durable_lifecycle", "in-memory workloads (0)"),
    ("durable.replayed_records", "count", "lower", "repro.store.durable",
     "restart_to_first_query_s @ durable_lifecycle", "in-memory workloads (0)"),
    ("durable.read_p50_ms", "ms", "lower", "repro.store.durable (end to end)",
     "p50_ms @ durable_lifecycle", "in-memory workloads (0)"),
    ("durable.write_p50_ms", "ms", "lower", "repro.store.durable (end to end)",
     "p95_ms/ops_s @ durable_lifecycle", "in-memory workloads (0)"),
    ("durable.disk_bytes_per_quad", "B", "lower", "repro.store.persist",
     "setup_s @ durable_lifecycle (checkpoint)", "in-memory workloads (0)"),
    ("persist.save_s", "s", "lower", "repro.store.persist",
     "setup_s, ops_s @ durable_lifecycle (checkpoint)", "in-memory workloads (0)"),
    ("persist.load_s", "s", "lower", "repro.store.persist",
     "restart_to_first_query_s @ durable_lifecycle", "in-memory workloads (0)"),
    ("persist.bytes", "B", "lower", "repro.store.persist",
     "durable.disk_bytes_per_quad", "in-memory workloads (0)"),
    # repro.sparql.serialize
    ("serialize.json_ms", "ms", "lower", "repro.sparql.serialize",
     "p95_ms @ http_serve (wide class)", "in-process workloads (0)"),
    ("serialize.bytes_out", "B", "lower", "repro.sparql.serialize",
     "p95_ms @ http_serve", "in-process workloads (0)"),
    # repro.server
    ("server.overhead_ms", "ms", "lower", "repro.server",
     "ops_s/p50_ms @ http_serve", "in-process workloads (0)"),
    ("server.cpu_ms_per_req", "ms", "lower", "repro.server",
     "ops_s/p95_ms @ http_serve (shared GIL)", "in-process workloads (0)"),
    ("server.rejected_share", "ratio", "lower", "repro.server",
     "failed ops @ http_serve", "in-process workloads (0)"),
    # http_serve diagnostics: tails and saturation that do not repeat
    # within a tenth on a shared 2-core box
    ("http.open30_p50_ms", "ms", "lower", "repro.server (open loop)",
     "p50_ms @ http_serve", "in-process workloads (0)"),
    ("http.open30_p95_ms", "ms", "lower", "repro.server (open loop)",
     "p95_ms @ http_serve", "in-process workloads (0)"),
    ("http.open60_p95_ms", "ms", "lower", "repro.server (open loop)",
     "p95_ms @ http_serve", "in-process workloads (0)"),
    ("http.closed_p99_ms", "ms", "lower", "repro.server",
     "p95_ms @ http_serve", "in-process workloads (0)"),
    ("http.stall_share", "ratio", "lower", "repro.server",
     "p95_ms @ http_serve", "in-process workloads (0)"),
    ("http.late_ms", "ms", "lower", "benchmark generator",
     "- (validity of the open-loop numbers)", "-"),
    ("http.max_rate_ok", "1/s", "higher", "repro.server",
     "ops_s @ http_serve", "in-process workloads (0)"),
    # the recorder itself
    ("trace.overhead_share", "ratio", "lower", "benchmarks/suite/trace.py",
     "- (validity of the per-layer numbers)", "-"),
)

MOVES = {row[0]: row[4] for row in LAYERS}
