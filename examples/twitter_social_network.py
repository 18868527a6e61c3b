"""The paper's Section 4 workload end to end, at laptop scale.

Generates a synthetic Twitter ego-network property graph (Section 4.2's
construction recipe), loads it under the NG model, prints the dataset
characteristics (Tables 6-8 analogues), and runs a sample of the
experiment queries EQ1-EQ12.

Run:  python examples/twitter_social_network.py
Env:  REPRO_SCALE=<egos>  (default 24; the paper used 973)
"""

from repro import PropertyGraphRdfStore
from repro.bench.report import render_table, scale_config
from repro.core import measure_property_graph
from repro.datasets.twitter import generate_twitter, hub_vertex, selective_tag


def main() -> None:
    graph = generate_twitter(scale_config())
    pg = measure_property_graph(graph)
    print(render_table(
        "Table 6 analogue: property graph characteristics",
        ["Nodes", "Edges", "Node KVs", "Edge KVs"],
        [[pg.vertices, pg.edges, pg.node_kvs, pg.edge_kvs]],
    ))
    print()

    store = PropertyGraphRdfStore(model="NG")
    store.load(graph)
    rdf = store.cardinalities()
    print(render_table(
        "Tables 7-8 analogue: transformed RDF characteristics (NG)",
        ["Quads", "Subjects", "Predicates", "Objects", "Named graphs"],
        [[
            rdf.total_quads, rdf.distinct_subjects, rdf.distinct_predicates,
            rdf.distinct_objects, rdf.named_graphs,
        ]],
    ))
    print()

    tag = selective_tag(graph, target_fraction=0.02)
    hub = store.vocabulary.vertex_iri(hub_vertex(graph)).value
    queries = store.queries.experiment_queries(tag, hub)
    print(f"Selective tag (the '#webseries' analogue): {tag}")
    print(f"Hub node (the 'n6160742' analogue): <{hub}>")
    print()
    for name in ("EQ1", "EQ2", "EQ4", "EQ5", "EQ8", "EQ11a", "EQ11b", "EQ12"):
        result = store.select(queries[name])
        if name.startswith("EQ11") or name == "EQ12":
            print(f"{name}: count = {result.scalar().to_python():,}")
        else:
            print(f"{name}: {len(result):,} results")
    print()
    print("Access plan for EQ2 (paper Table 5 style):")
    for line in store.explain(queries["EQ2"]):
        print(" ", line)


if __name__ == "__main__":
    main()
