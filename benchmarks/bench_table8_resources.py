"""Table 8 — transformed RDF dataset characteristics: resources.

Paper: NG subjects 1,019,549 (70,097 vertices + 949,452 edge graphs
with KVs); SP subjects 1,866,182 (70,097 + 1,796,085 edges); NG has 4
predicates, SP has 1,796,090 (4 + 1 + E); NG named graphs = E, SP 0;
SP objects = NG objects + 2 (the labels in object position).
"""

from repro.bench.report import render_table
from repro.core import measure_rdf

from conftest import EXPERIMENT_MODELS


def bench_table8_resource_counts(benchmark, ctx):
    measured = {}

    def measure_all():
        for model in EXPERIMENT_MODELS:
            measured[model] = measure_rdf(ctx.stores[model].quads())
        return measured

    benchmark.pedantic(measure_all, rounds=3, warmup_rounds=1)
    ng, sp = measured["NG"], measured["SP"]
    print()
    print(render_table(
        "Table 8: transformed RDF dataset characteristics (resources)",
        ["Model", "Subjects", "Predicates", "Objects", "Named graphs"],
        [
            ["NG", ng.distinct_subjects, ng.distinct_predicates,
             ng.distinct_objects, ng.named_graphs],
            ["SP", sp.distinct_subjects, sp.distinct_predicates,
             sp.distinct_objects, sp.named_graphs],
        ],
    ))
    graph = ctx.graph
    edges = graph.edge_count
    edges_with_kvs = graph.edges_with_kv_count()
    labels = len(graph.labels())
    keys = len(set(graph.edge_keys()) | set(graph.vertex_keys()))
    # NG: subjects = vertices-with-triples + edge graphs having KVs.
    assert ng.named_graphs == edges
    assert sp.named_graphs == 0
    assert sp.distinct_subjects - ng.distinct_subjects == (
        edges - edges_with_kvs
    )
    # NG predicates: labels + keys; SP adds one per edge + subPropertyOf.
    assert ng.distinct_predicates == labels + keys
    assert sp.distinct_predicates == labels + keys + edges + 1
    # SP objects add the labels appearing in -e-sPO-p object position.
    assert sp.distinct_objects == ng.distinct_objects + labels
