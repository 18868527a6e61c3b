"""Table 6 — Twitter dataset characteristics.

Paper (973 egos): 76,245 nodes; 1,796,085 edges; 1,218,763 node KVs;
3,345,982 edge KVs.  Shape to reproduce at any scale: edges >> nodes
(dense graph), edge KVs > node KVs, follows >> knows.
"""

from repro.bench.report import render_table, scale_config
from repro.core import measure_property_graph
from repro.datasets.twitter import generate_twitter


def bench_table6_generation(benchmark):
    """Times dataset generation; prints the Table 6 row."""
    graph = benchmark.pedantic(
        lambda: generate_twitter(scale_config()), rounds=3, warmup_rounds=1
    )
    pg = measure_property_graph(graph)
    print()
    print(render_table(
        "Table 6: Twitter dataset characteristics",
        ["Nodes", "Edges", "Node KVs", "Edge KVs"],
        [[pg.vertices, pg.edges, pg.node_kvs, pg.edge_kvs]],
    ))
    follows = sum(1 for e in graph.edges() if e.label == "follows")
    knows = pg.edges - follows
    print(f"edges by label: follows={follows:,} knows={knows:,}")
    # Shape assertions (the paper's qualitative characteristics).
    assert pg.edges > pg.vertices, "graph must be densely connected"
    assert pg.edge_kvs > pg.node_kvs, "edge KVs must outnumber node KVs"
    assert follows > knows, "follows must dominate knows"


def bench_table6_relational_export(benchmark, ctx):
    """Times the Figure 3 relational flattening of the same graph."""
    from repro.propertygraph import to_relational

    relational = benchmark.pedantic(
        lambda: to_relational(ctx.graph), rounds=3, warmup_rounds=1
    )
    assert relational.edge_count == ctx.graph.edge_count
    assert len(relational.obj_kvs) == (
        ctx.graph.vertex_kv_count() + ctx.graph.edge_kv_count()
    )
