"""Deep traversal: SPARQL property paths vs. procedural Gremlin style.

The paper's Experiment 4 counts paths of length 1..5 from a hub node
with SPARQL 1.1 sequence paths (EQ11a-e), and its conclusion notes that
for cases property paths cannot express (length limits, returning the
path itself), "an alternative ... is to perform traversal procedurally
similar to the approach of Gremlin".  This example does both and checks
they agree.

Run:  python examples/path_traversal.py
Env:  REPRO_SCALE=<egos>  (default 24)
"""

import time

from repro import PropertyGraphRdfStore
from repro.bench.report import render_series, scale_config
from repro.datasets.twitter import generate_twitter, hub_vertex
from repro.propertygraph.traversal import Traversal, count_paths


def main() -> None:
    graph = generate_twitter(scale_config())
    store = PropertyGraphRdfStore(model="NG")
    store.load(graph)

    hub = hub_vertex(graph)
    hub_iri = store.vocabulary.vertex_iri(hub).value
    print(f"Hub node: <{hub_iri}> "
          f"(out-degree {graph.out_degree(hub, 'follows')})")
    print()

    sparql_times, sparql_counts = {}, {}
    procedural_counts = {}
    for hops in range(1, 6):
        query = store.queries.eq11(hub_iri, hops)
        start = time.perf_counter()
        count = store.select(query).scalar().to_python()
        sparql_times[hops] = round(time.perf_counter() - start, 4)
        sparql_counts[hops] = count
        procedural_counts[hops] = count_paths(graph, hub, "follows", hops)
        assert sparql_counts[hops] == procedural_counts[hops], hops

    print(render_series(
        "EQ11a-e: path counts from the hub (SPARQL == procedural)",
        "hops",
        {
            "paths": sparql_counts,
            "sparql seconds": sparql_times,
        },
    ))
    print()

    # Things SPARQL 1.1 property paths cannot do (Section 5.1): return
    # the paths themselves, or bound-length arbitrary traversal.  The
    # procedural pipeline can.
    two_hop_names = (
        Traversal(graph)
        .vertex(hub)
        .out("follows")
        .out("follows")
        .dedup()
        .ids()
    )
    print(f"Distinct 2-hop follows neighbourhood of the hub: "
          f"{len(two_hop_names)} nodes (procedural dedup pipeline)")

    reachable = store.select(
        f"SELECT ?y WHERE {{ <{hub_iri}> r:follows+ ?y }}"
    )
    print(f"follows+ reachable set (SPARQL, set semantics): "
          f"{len(reachable)} nodes")


if __name__ == "__main__":
    main()
