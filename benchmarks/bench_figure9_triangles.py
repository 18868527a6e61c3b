"""Figure 9 / Experiment 5 — triangle counting (EQ12).

Paper: 20,211,887 follows triangles found in 61 s (NG) / 65 s (SP);
"the NG approach performs slightly better because of its smaller table
size", where Oracle's plan is hash joins with full scans.  This engine
runs the cyclic BGP as one trie join instead: each pattern is read once
by a range scan and the triangle is closed by intersecting candidate
sets, so no 2-path is materialised.  Shape checks: identical counts
across models and agreement with the native triangle counter.
"""

import pytest

from conftest import run_eq
from repro.propertygraph.traversal import count_triangles


@pytest.mark.parametrize("model", ["NG", "SP"])
def bench_figure9(benchmark, ctx, model):
    store = ctx.stores[model]
    query = store.queries.eq12()
    result = run_eq(benchmark, store, query)
    count = result.scalar().to_python()
    benchmark.extra_info["triangles"] = count
    assert count > 0


def bench_figure9_counts_agree(benchmark, ctx):
    def check():
        native = count_triangles(ctx.graph, "follows")
        for model in ("NG", "SP"):
            store = ctx.stores[model]
            sparql = store.select(store.queries.eq12()).scalar().to_python()
            assert sparql == native, model
        return native

    count = benchmark.pedantic(check, rounds=1, warmup_rounds=0)
    print(f"\nfollows triangles: {count:,}")
