"""EQ12 (Figure 9) runs as one trie join on every encoding.

The triangle BGP has a cyclic join graph, so it compiles to a single
``TrieJoin`` that reads each pattern once and binds one variable at a
time.  These tests pin its answer to the native triangle counter and
its plan quality to counters EXPLAIN ANALYZE reports: no level binds
more than twice the rows of its largest input pattern (the pairwise
plan materialised about ten times that as 2-paths), and the index
entries scanned stay within three reads of the ``follows`` edges.
"""

import pytest

from repro.core import MODEL_NG, MODEL_RF, MODEL_SP, PropertyGraphRdfStore
from repro.datasets.twitter import TwitterConfig, generate_twitter
from repro.propertygraph.traversal import count_triangles

MODELS = (MODEL_NG, MODEL_SP, MODEL_RF)


@pytest.fixture(scope="module")
def graph():
    return generate_twitter(TwitterConfig(egos=8, seed=42))


@pytest.fixture(scope="module")
def stores(graph):
    built = {}
    for model in MODELS:
        store = PropertyGraphRdfStore(model=model)
        store.load(graph)
        built[model] = store
    return built


def _follows(store) -> int:
    result = store.select(
        "SELECT (COUNT(*) AS ?n) WHERE { ?x r:follows ?y }"
    )
    return result.scalar().to_python()


@pytest.mark.parametrize("model", MODELS)
class TestEQ12:
    def test_counts_the_native_triangles(self, stores, graph, model):
        store = stores[model]
        count = store.select(store.queries.eq12()).scalar().to_python()
        assert count == count_triangles(graph, "follows") > 0

    def test_compiles_to_one_trie_join(self, stores, model):
        store = stores[model]
        lines = store.engine.explain_plan(store.queries.eq12())
        start = next(
            i for i, line in enumerate(lines)
            if line.startswith("Physical plan")
        )
        physical = lines[start:]
        assert sum("TrieJoin(?x ?y ?z)" in line for line in physical) == 1
        assert not any("NestedLoopJoin" in line for line in physical)
        access = store.explain(store.queries.eq12())
        assert len(access) == 3
        assert all(line.endswith(", trie)") for line in access)

    def test_no_level_binds_more_than_twice_its_largest_input(
        self, stores, model
    ):
        store = stores[model]
        analysis = store.explain(store.queries.eq12(), analyze=True)
        scans = [s for s in analysis.steps if s.operator == "pattern"]
        (join,) = [s for s in analysis.steps if s.join_method == "trie"
                   and s.operator == "join"]
        assert [s.join_method for s in scans] == ["trie"] * 3
        largest = max(s.rows_out for s in scans)
        assert [name for name, _, _ in join.levels] == ["?x", "?y", "?z"]
        for name, candidates, survivors in join.levels:
            assert survivors <= candidates
            assert survivors <= 2 * largest, name
        assert join.levels[-1][2] == join.rows_out
        text = analysis.render()
        assert "`- ?z: candidates=" in text

    def test_scans_each_follows_edge_at_most_three_times(
        self, stores, model
    ):
        store = stores[model]
        analysis = store.explain(store.queries.eq12(), analyze=True)
        scanned = analysis.stats.counter("index.rows_scanned")
        assert 0 < scanned <= 3 * _follows(store)
