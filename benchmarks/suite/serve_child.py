#!/usr/bin/env python3
"""Server child of `http_serve`: builds the NG store from the dataset
seed, serves it with ``SparqlServer(engine, workers=2)`` on an
ephemeral loopback port, and talks to its parent over its pipes.

stdout, one JSON line each:

* at start: ``{"port": ..., "build_s": ..., "raw_build_s": ...,
  "transform_s": ..., "bulk_load_s": ..., "quads": ...,
  "page_bytes_per_quad": ...}`` — ``build_s`` (graph + load + server
  start) and the load times are at reference speed (``calibrate.py``),
  ``raw_build_s`` is the same interval as the clock read it;
* per ``rusage`` line on stdin: this process's CPU seconds and peak RSS.

``stop`` (or EOF) on stdin stops the server and exits 0.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import common


def rusage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--egos", type=int, required=True)
    parser.add_argument("--dataset-seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    common.bootstrap()
    import inproc
    from calibrate import SpeedTrace, StageClock
    from repro.core import PropertyGraphRdfStore
    from repro.server import SparqlServer

    clock = StageClock(SpeedTrace())
    clock.start()
    graph, _, _ = common.build_graph(args.egos, args.dataset_seed)
    raw_graph, graph_s = clock.lap()
    store = PropertyGraphRdfStore(model="NG")
    times = common.LoadTimes()
    common.load_store(store, graph, clock, times)
    del graph
    server = SparqlServer(store.engine, workers=args.workers).start()
    raw_start, start_s = clock.lap()
    try:
        print(json.dumps({
            "port": server.port,
            "build_s": graph_s + times.seconds + start_s,
            "raw_build_s": raw_graph + times.raw_s + raw_start,
            "transform_s": times.transform_s,
            "bulk_load_s": times.bulk_load_s,
            "quads": times.quads,
            "page_bytes_per_quad": inproc.page_bytes_per_quad(store),
        }), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "rusage":
                print(json.dumps(rusage()), flush=True)
            elif command == "stop":
                break
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
