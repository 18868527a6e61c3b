"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``transform`` — convert a property graph (Figure 3-style CSV files or
  a SNAP ego-network directory) to RDF N-Quads under a chosen model;
* ``query``     — load N-Quads and run a SPARQL query (table, JSON or
  CSV output);
* ``stats``     — print the Table 2/6-style characteristics of a
  property graph or an N-Quads file;
* ``demo``      — generate the synthetic Twitter workload and run the
  paper's experiment queries.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Optional

from repro.core import (
    PropertyGraphRdfStore,
    measure_property_graph,
    measure_rdf,
    transformer_for,
)
from repro.propertygraph import (
    EdgeRow,
    ObjKVRow,
    PropertyGraph,
    RelationalPropertyGraph,
    from_relational,
)
from repro.rdf import parse_nquads, serialize_nquads
from repro.sparql import EvaluationError, SelectResult, SparqlEngine
from repro.sparql.serialize import to_csv, to_json
from repro.store import SemanticNetwork


def _load_csv_graph(edges_path: str, kvs_path: Optional[str]) -> PropertyGraph:
    """Load the Figure 3 relational format from CSV files.

    ``edges.csv``: start_vertex,edge,label,end_vertex (with header).
    ``kvs.csv``: obj_id,kind,key,type,value — kind is ``v`` or ``e``.
    """
    edges: List[EdgeRow] = []
    with open(edges_path, newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            edges.append(
                EdgeRow(
                    int(record["start_vertex"]),
                    int(record["edge"]),
                    record["label"],
                    int(record["end_vertex"]),
                )
            )
    kv_rows: List[ObjKVRow] = []
    if kvs_path:
        with open(kvs_path, newline="", encoding="utf-8") as handle:
            for record in csv.DictReader(handle):
                kv_rows.append(
                    ObjKVRow(
                        int(record["obj_id"]),
                        record["key"],
                        record["type"].upper(),
                        record["value"],
                        is_edge=record["kind"].lower() == "e",
                    )
                )
    relational = RelationalPropertyGraph(edges=edges, obj_kvs=kv_rows, vertices=[])
    return from_relational(relational)


def _load_graph(args) -> PropertyGraph:
    if args.snap:
        from repro.datasets.snap import load_snap_ego_networks

        return load_snap_ego_networks(args.snap)
    if args.edges:
        return _load_csv_graph(args.edges, args.kvs)
    raise SystemExit("transform/stats need --edges or --snap input")


def _cmd_transform(args) -> int:
    graph = _load_graph(args)
    transformer = transformer_for(args.model)
    text = serialize_nquads(transformer.transform(graph))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {text.count(chr(10)):,} quads ({transformer.model} model) "
            f"to {args.output}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


def _build_engine(data_path: str, **engine_kwargs) -> SparqlEngine:
    """Load an N-Quads file into a fresh engine (query/explain/serve)."""
    network = SemanticNetwork()
    network.create_model("data", ["PCSGM", "PSCGM", "SPCGM", "GSPCM"])
    with open(data_path, "r", encoding="utf-8") as handle:
        count = network.bulk_load("data", parse_nquads(handle))
    print(f"loaded {count:,} quads", file=sys.stderr)
    return SparqlEngine(
        network,
        prefixes={
            "r": "http://pg/r/", "rel": "http://pg/r/",
            "k": "http://pg/k/", "key": "http://pg/k/",
        },
        default_model="data",
        **engine_kwargs,
    )


def _read_query(args) -> str:
    if args.query_file:
        with open(args.query_file, "r", encoding="utf-8") as handle:
            return handle.read()
    return args.query


def _cmd_query(args) -> int:
    return _print_read(args, _build_engine(args.data), "sparql")


def _cmd_pgql(args) -> int:
    engine = _build_engine(args.data, pgql_encoding=args.encoding)
    return _print_read(args, engine, "pgql")


def _print_read(args, engine: SparqlEngine, language: str) -> int:
    """``query`` and ``pgql``: print the plan (``--explain``) or run the
    query and print its rows as a table, JSON or CSV."""
    query = _read_query(args)
    if args.explain:
        _print_explain(engine, query, language)
        return 0
    result = engine.query(query, language=language)
    if not isinstance(result, SelectResult):
        raise EvaluationError("not a SELECT query")
    if args.format == "json":
        print(to_json(result, indent=2))
    elif args.format == "csv":
        sys.stdout.write(to_csv(result))
    else:
        print("\t".join(result.variables))
        for row in result.rows:
            print("\t".join("" if t is None else t.n3() for t in row))
        print(f"({len(result)} rows)", file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    engine = _build_engine(args.data)
    query = _read_query(args)
    if args.analyze or args.trace:
        analysis = engine.explain(query, analyze=True, trace=args.trace)
        for line in analysis.lines:
            print(line)
        return 0
    if args.format == "json":
        document = engine.explain_plan(query, format="json")
        document["access_plan"] = engine.explain(query)
        print(json.dumps(document, indent=2))
        return 0
    _print_explain(engine, query, "sparql")
    return 0


def _print_explain(engine: SparqlEngine, query: str, language: str) -> None:
    """The layer trees, then the Table 5 access plan, of the plan the
    query runs."""
    for line in engine.explain_plan(query, language=language):
        print(line)
    print("Access plan (Table 5):")
    for line in engine.explain(query, language=language):
        print("  " + line)


def _cmd_stats(args) -> int:
    if args.nquads:
        with open(args.nquads, "r", encoding="utf-8") as handle:
            measured = measure_rdf(parse_nquads(handle))
        print(f"quads:              {measured.total_quads:,}")
        print(f"named graphs:       {measured.named_graphs:,}")
        print(f"distinct subjects:  {measured.distinct_subjects:,}")
        print(f"distinct predicates:{measured.distinct_predicates:,}")
        print(f"distinct objects:   {measured.distinct_objects:,}")
        return 0
    graph = _load_graph(args)
    pg = measure_property_graph(graph)
    print(f"vertices:  {pg.vertices:,}")
    print(f"edges:     {pg.edges:,} ({pg.edges_with_kvs:,} with KVs)")
    print(f"node KVs:  {pg.node_kvs:,}")
    print(f"edge KVs:  {pg.edge_kvs:,}")
    print(f"labels:    {pg.edge_labels:,}  keys: {pg.distinct_keys:,}")
    return 0


def _cmd_demo(args) -> int:
    from repro.datasets.twitter import (
        TwitterConfig,
        connected_tag,
        generate_twitter,
        hub_vertex,
    )

    graph = generate_twitter(TwitterConfig(egos=args.egos, seed=args.seed))
    store = PropertyGraphRdfStore(model=args.model)
    counts = store.load(graph)
    print(f"generated {graph.vertex_count:,} nodes / {graph.edge_count:,} "
          f"edges; loaded {sum(counts.values()):,} quads ({store.model})")
    tag = connected_tag(graph)
    hub = store.vocabulary.vertex_iri(hub_vertex(graph)).value
    for name, query in store.queries.experiment_queries(tag, hub).items():
        result = store.select(query)
        if len(result.variables) == 1 and len(result) == 1 and (
            result.variables[0] == "cnt"
        ):
            print(f"  {name}: count={result.scalar().to_python():,}")
        else:
            print(f"  {name}: {len(result):,} rows")
    return 0


def _cmd_serve(args) -> int:
    from repro.server import make_server

    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit("--timeout must be positive")
    if args.max_inflight is not None and args.max_inflight < 1:
        raise SystemExit("--max-inflight must be >= 1")
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.queue_size is not None:
        if args.workers is None:
            raise SystemExit("--queue-size requires --workers")
        if args.queue_size < 1:
            raise SystemExit("--queue-size must be >= 1")
    engine = _build_engine(
        args.data,
        collect_stats=args.metrics,
        slow_query_seconds=args.slow_query_seconds,
        pgql_encoding=args.pgql_encoding,
    )
    if args.metrics:
        from repro.obs import metrics as obs_metrics

        obs_metrics.enable()
    if args.access_log:
        from repro.obs import configure_json_logging

        configure_json_logging()
    server, port = make_server(
        engine,
        args.host,
        args.port,
        allow_updates=args.allow_updates,
        timeout=args.timeout,
        max_inflight=args.max_inflight,
        trace=args.trace,
        workers=args.workers,
        max_queue=args.queue_size,
    )
    endpoints = f"http://{args.host}:{port}/sparql"
    if args.metrics:
        endpoints += " and /metrics"
    if args.workers is not None:
        endpoints += f" [{args.workers} workers]"
    print(
        f"serving SPARQL on {endpoints} (Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if server.worker_pool is not None:
            server.worker_pool.close()
    return 0


def _cmd_leader(args) -> int:
    """Serve a durable store as a replication leader + SPARQL endpoint."""
    from repro.server import make_server
    from repro.store import open_durable
    from repro.store.replication import (
        ReplicationLeader,
        read_replication_state,
        write_replication_state,
    )

    network = open_durable(args.directory)
    state = read_replication_state(args.directory)
    epoch = state["epoch"]
    write_replication_state(args.directory, "leader", epoch)
    if args.model not in network.model_names:
        network.create_model(args.model, ["PCSGM", "PSCGM", "SPCGM", "GSPCM"])
    if args.load:
        with open(args.load, "r", encoding="utf-8") as handle:
            count = network.bulk_load_nquads(args.model, handle)
        print(f"loaded {count:,} quads", file=sys.stderr)
    engine = SparqlEngine(network, default_model=args.model)
    leader = ReplicationLeader(
        network, host=args.host, port=args.replication_port, epoch=epoch
    ).start()
    server, port = make_server(
        engine,
        args.host,
        args.port,
        allow_updates=True,
        replication=leader,
    )
    print(
        f"leader (epoch {epoch}): SPARQL on http://{args.host}:{port}/sparql,"
        f" replication on {leader.host}:{leader.port}",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        leader.stop()
        network.close()
    return 0


def _cmd_follower(args) -> int:
    """Tail a leader into a durable directory and serve stale-bounded reads."""
    from repro.server import make_server
    from repro.store import open_durable
    from repro.store.replication import ReplicationFollower

    leader_host, _, leader_port = args.leader.rpartition(":")
    if not leader_host:
        raise SystemExit("--leader must be HOST:PORT")
    network = open_durable(args.directory)
    follower = ReplicationFollower(
        network, leader_host, int(leader_port)
    ).start()
    engine = SparqlEngine(network, default_model=args.model)
    server, port = make_server(
        engine,
        args.host,
        args.port,
        allow_updates=False,
        replication=follower,
        staleness_wait=args.staleness_wait,
    )
    print(
        f"follower of {args.leader}: SPARQL (reads) on "
        f"http://{args.host}:{port}/sparql",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        follower.stop()
        network.close()
    return 0


def _cmd_promote(args) -> int:
    """Fence a follower directory's old role and promote it to leader."""
    from repro.store.replication import promote

    summary = promote(args.directory)
    print(f"promoted {args.directory} to leader")
    print(f"  epoch:             {summary['epoch']}")
    print(f"  applied seq:       {summary['applied_seq']:,}")
    print(f"  data version:      {summary['data_version']:,}")
    print(f"  WAL tail replayed: {summary['wal_tail_replayed']:,} records")
    return 0


def _cmd_recover(args) -> int:
    from repro.store import open_durable

    store = open_durable(args.directory)
    try:
        stats = store.recovery_stats
        print(f"recovered durable store at {store.directory}")
        print(f"  checkpoint loaded:  {stats.checkpoint_loaded}")
        print(f"  WAL records:        {stats.wal_records:,}")
        print(f"  applied:            {stats.applied:,}")
        print(f"  skipped (no-ops):   {stats.skipped:,}")
        print(f"  errors:             {stats.errors:,}")
        print(f"  torn bytes dropped: {stats.torn_bytes:,}")
        print(f"  corrupt records:    {stats.corrupt_records:,}")
        for name in store.model_names:
            print(f"  model {name}: {len(list(store.quads(name))):,} quads")
        if args.checkpoint:
            counts = store.checkpoint()
            print(f"checkpoint written ({sum(counts.values()):,} quads); "
                  "WAL reset")
    finally:
        store.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Property graphs as RDF (EDBT 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    transform = sub.add_parser("transform", help="PG -> N-Quads")
    transform.add_argument("--model", default="NG", choices=["RF", "NG", "SP"])
    transform.add_argument("--edges", help="edges.csv (Figure 3 format)")
    transform.add_argument("--kvs", help="kvs.csv (ObjKVs format)")
    transform.add_argument("--snap", help="SNAP ego-network directory")
    transform.add_argument("--output", "-o", help="output .nq path")
    transform.set_defaults(func=_cmd_transform)

    query = sub.add_parser("query", help="run SPARQL over N-Quads")
    query.add_argument("data", help="input .nq file")
    query.add_argument("--query", "-q", help="SPARQL text")
    query.add_argument("--query-file", "-f", help="SPARQL file")
    query.add_argument(
        "--format", default="table", choices=["table", "json", "csv"]
    )
    query.add_argument("--explain", action="store_true",
                       help="print the plan (as `repro explain` does) "
                       "instead of running")
    query.set_defaults(func=_cmd_query)

    pgql = sub.add_parser(
        "pgql",
        help="run a PGQL/Cypher-subset MATCH query over N-Quads "
        "(compiled per Table 3; see docs/PGQL.md)",
    )
    pgql.add_argument("data", help="input .nq file")
    pgql.add_argument("--query", "-q", help="PGQL text")
    pgql.add_argument("--query-file", "-f", help="PGQL file")
    pgql.add_argument(
        "--encoding", default="NG", choices=["RF", "NG", "SP"],
        help="PG-as-RDF encoding the data was transformed under",
    )
    pgql.add_argument(
        "--format", choices=["table", "json", "csv"], default="table"
    )
    pgql.add_argument(
        "--explain", action="store_true",
        help="print the plan (as `repro explain` does) instead of running",
    )
    pgql.set_defaults(func=_cmd_pgql)

    explain = sub.add_parser(
        "explain",
        help="show the logical/physical plan trees and the access plan "
        "(optionally with actuals)",
    )
    explain.add_argument("data", help="input .nq file")
    explain.add_argument("--query", "-q", help="SPARQL text")
    explain.add_argument("--query-file", "-f", help="SPARQL file")
    explain.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="text prints indented plan trees; json emits the logical, "
        "optimized and physical trees as one JSON document",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query and annotate each step with actual "
        "rows, index scan counts and timings (EXPLAIN ANALYZE)",
    )
    explain.add_argument(
        "--trace",
        action="store_true",
        help="also record a hierarchical span trace (parse, plan, each "
        "operator) and print it as an indented tree; implies --analyze",
    )
    explain.set_defaults(func=_cmd_explain)

    stats = sub.add_parser("stats", help="dataset characteristics")
    stats.add_argument("--edges", help="edges.csv")
    stats.add_argument("--kvs", help="kvs.csv")
    stats.add_argument("--snap", help="SNAP directory")
    stats.add_argument("--nquads", help="N-Quads file")
    stats.set_defaults(func=_cmd_stats)

    demo = sub.add_parser("demo", help="synthetic Twitter demo")
    demo.add_argument("--egos", type=int, default=12)
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--model", default="NG", choices=["RF", "NG", "SP"])
    demo.set_defaults(func=_cmd_demo)

    serve = sub.add_parser(
        "serve", help="serve N-Quads over the SPARQL protocol"
    )
    serve.add_argument("data", help="input .nq file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=3030)
    serve.add_argument("--allow-updates", action="store_true")
    serve.add_argument(
        "--pgql-encoding", default="NG", choices=["RF", "NG", "SP"],
        help="encoding the POST /pgql endpoint compiles against",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="enable the metrics registry, per-query stats in query "
        "responses, and the GET /metrics endpoint",
    )
    serve.add_argument(
        "--slow-query-seconds",
        type=float,
        default=None,
        help="log queries slower than this many seconds "
        "(reported under /metrics)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request query deadline in seconds; a query past it is "
        "aborted and answered with HTTP 503",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="bound on concurrently executing requests; excess requests "
        "get HTTP 429 instead of queueing",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="dispatch query/update execution through a pool of this "
        "many worker threads behind a bounded backpressure queue "
        "(HTTP 429 when the queue is full); default is one thread "
        "per connection",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=None,
        help="bound on jobs waiting for a worker (with --workers); "
        "defaults to 2x the worker count",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="trace every request (span tree per request, X-Trace-Id "
        "echo, GET /trace/<id> retrieval)",
    )
    serve.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON access-log line per request on "
        "stderr (method, path, status, duration, trace id)",
    )
    serve.set_defaults(func=_cmd_serve)

    recover = sub.add_parser(
        "recover",
        help="recover a durable store directory (WAL + checkpoint) and "
        "print what the recovery found",
    )
    recover.add_argument("directory", help="durable store directory")
    recover.add_argument(
        "--checkpoint",
        action="store_true",
        help="write a fresh checkpoint (and reset the WAL) after recovery",
    )
    recover.set_defaults(func=_cmd_recover)

    leader = sub.add_parser(
        "leader",
        help="serve a durable store as replication leader "
        "(SPARQL + WAL shipping)",
    )
    leader.add_argument("directory", help="durable store directory")
    leader.add_argument("--host", default="127.0.0.1")
    leader.add_argument("--port", type=int, default=3030)
    leader.add_argument(
        "--replication-port",
        type=int,
        default=0,
        help="port followers connect to (default: ephemeral, printed)",
    )
    leader.add_argument("--model", default="data",
                        help="default model name (created if absent)")
    leader.add_argument("--load", help="N-Quads file to bulk load at start")
    leader.set_defaults(func=_cmd_leader)

    follower = sub.add_parser(
        "follower",
        help="tail a leader into a durable directory and serve "
        "staleness-bounded reads",
    )
    follower.add_argument("directory", help="durable store directory")
    follower.add_argument("--leader", required=True,
                          help="leader replication address (HOST:PORT)")
    follower.add_argument("--host", default="127.0.0.1")
    follower.add_argument("--port", type=int, default=3031)
    follower.add_argument("--model", default="data")
    follower.add_argument(
        "--staleness-wait",
        type=float,
        default=2.0,
        help="max seconds a min-version read parks before 503 StaleRead",
    )
    follower.set_defaults(func=_cmd_follower)

    promote = sub.add_parser(
        "promote",
        help="promote a follower directory to leader (fences the old "
        "role, replays the WAL tail, bumps the epoch)",
    )
    promote.add_argument("directory", help="durable store directory")
    promote.set_defaults(func=_cmd_promote)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("query", "explain", "pgql") and not (
        args.query or args.query_file
    ):
        parser.error(f"{args.command} needs --query or --query-file")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
