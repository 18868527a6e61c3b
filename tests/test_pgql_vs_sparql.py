"""Differential equivalence: the PGQL EQ suite vs the SPARQL EQ suite.

The paper's Table 3 claim as a regression gate: every experiment query
EQ1-EQ12 (EQ11 at hops 1-5) expressed once in PGQL must return exactly
the same multiset of rows as its hand-written SPARQL formulation, on
both the NG and SP encodings, at batch sizes 1 and 1024.

Also pins the integration contract: PGQL plans land in the shared plan
cache under ``pgql[<encoding>]``-prefixed keys, EXPLAIN reports the
query language, and traces carry the ``pgql.parse``/``pgql.compile``
spans.
"""

import re
from collections import Counter

import pytest

from repro.core import PropertyGraphRdfStore
from repro.core.transform import MODEL_NG, MODEL_RF, MODEL_SP
from repro.datasets.twitter import (
    TwitterConfig,
    connected_tag,
    generate_twitter,
    hub_vertex,
)
from repro.obs import trace as _trace
from repro.pgql import pgql_experiment_queries

EQ_NAMES = (
    ["EQ%d" % i for i in range(1, 11)]
    + ["EQ11%s" % letter for letter in "abcde"]
    + ["EQ12"]
)
BATCH_SIZES = (1, 1024)
#: EQs whose PGQL text compiles to the SPARQL twin's physical plan.
PLAN_PARITY_NAMES = (
    ["EQ1", "EQ2"] + ["EQ%d" % i for i in range(4, 11)] + ["EQ12"]
)


@pytest.fixture(scope="module")
def dataset():
    graph = generate_twitter(TwitterConfig(egos=5, seed=13))
    return graph, connected_tag(graph), hub_vertex(graph)


def _store(dataset, model):
    graph, _, _ = dataset
    store = PropertyGraphRdfStore(model=model)
    store.load(graph)
    return store


@pytest.fixture(scope="module", params=[MODEL_NG, MODEL_SP])
def store(request, dataset):
    return _store(dataset, request.param)


@pytest.fixture(scope="module")
def suites(dataset, store):
    graph, tag, hub = dataset
    sparql = store.queries.experiment_queries(
        tag, store.vocabulary.vertex_iri(hub).value
    )
    pgql = pgql_experiment_queries(tag, hub)
    assert sorted(sparql) == sorted(pgql)
    return sparql, pgql


def _multiset(result):
    return Counter(tuple(row) for row in result.rows)


def _physical_shape(lines):
    """The physical-plan lines with variables renamed ``?v0, ?v1, ...``
    in order of first appearance, so the two front-ends' spellings of
    the same plan compare equal."""
    plan = lines[next(
        i for i, line in enumerate(lines) if line.startswith("Physical plan")
    ):]
    names = {}
    return [
        re.sub(
            r"\?[\w:#]+",
            lambda m: names.setdefault(m.group(), f"?v{len(names)}"),
            line,
        )
        for line in plan
    ]


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("name", EQ_NAMES)
    def test_pgql_equals_sparql(self, store, suites, name, batch_size):
        sparql, pgql = suites
        saved = store.engine.batch_size
        store.engine.batch_size = batch_size
        try:
            expected = _multiset(store.select(sparql[name]))
            actual = _multiset(store.pgql(pgql[name]))
        finally:
            store.engine.batch_size = saved
        assert actual == expected, (
            f"{name} on {store.model}: PGQL returned {sum(actual.values())} "
            f"rows, SPARQL {sum(expected.values())}"
        )

    @pytest.mark.parametrize("name", PLAN_PARITY_NAMES)
    def test_pgql_compiles_to_the_sparql_physical_plan(self, dataset, name):
        """PGQL runs the very same operators as its SPARQL twin on NG,
        so the front-end costs no execution time.  EQ4 (node KVs) and
        EQ8 (edge KVs behind GRAPH ?e) are where the compiled text
        differs most from the hand-written one; EQ3 and EQ11 compile to
        other plans today and are not covered."""
        _, tag, hub = dataset
        store = _store(dataset, MODEL_NG)
        sparql = store.queries.experiment_queries(
            tag, store.vocabulary.vertex_iri(hub).value
        )[name]
        pgql = pgql_experiment_queries(tag, hub)[name]
        assert _physical_shape(
            store.engine.explain_plan(pgql, language="pgql")
        ) == _physical_shape(store.engine.explain_plan(sparql))

    def test_the_same_pgql_text_serves_every_encoding(self, dataset):
        """One PGQL query text per EQ — the compiler, not the author,
        applies the encoding-specific formulation rules (including RF,
        which has no SPARQL formulation in PgQueryBuilder)."""
        graph, tag, hub = dataset
        per_model = {}
        for model in (MODEL_NG, MODEL_SP, MODEL_RF):
            store = _store(dataset, model)
            per_model[model] = {
                name: _multiset(store.pgql(text))
                for name, text in pgql_experiment_queries(tag, hub).items()
            }
        assert per_model[MODEL_NG] == per_model[MODEL_SP] == per_model[MODEL_RF]


class TestPipelineIntegration:
    def test_pgql_plans_share_the_plan_cache(self, store, suites):
        _, pgql = suites
        store.engine.plan_cache.clear()
        store.pgql(pgql["EQ2"])
        before = store.engine.plan_cache.stats()
        store.pgql(pgql["EQ2"])
        after = store.engine.plan_cache.stats()
        assert after["hits"] == before["hits"] + 1
        # A SPARQL query of the same shape runs the PGQL-compiled plan:
        # the key is the lifted shape, not the text or the front-end.
        vocabulary = store.vocabulary
        vertex = vocabulary.vertex_iri(15).value
        follows = vocabulary.label_iri("follows").value
        store.engine.plan_cache.clear()
        pgql_rows = store.pgql(
            "MATCH (n)-[:follows]->(m) WHERE id(n)=15 RETURN m"
        ).rows
        sparql_rows = store.select(
            f"SELECT ?m WHERE {{ ?n <{follows}> ?m "
            f"FILTER (?n = <{vertex}>) }}"
        ).rows
        assert sorted(map(repr, pgql_rows)) == sorted(map(repr, sparql_rows))
        assert len(store.engine.plan_cache) == 1
        assert store.engine.plan_cache.stats()["hits"] == after["hits"] + 1

    def test_order_by_properties_column(self, store, suites):
        """The ``properties()`` expansion columns are orderable output
        names, not internal variables."""
        _, pgql = suites
        result = store.pgql(pgql["EQ4"] + " ORDER BY n_key")
        assert _multiset(result) == _multiset(store.pgql(pgql["EQ4"]))
        keys = [row[1].value for row in result.rows]
        assert keys == sorted(keys)

    def test_explain_reports_the_query_language(self, store, suites):
        _, pgql = suites
        lines = store.engine.explain_plan(pgql["EQ1"], language="pgql")
        assert "Query language: pgql" in lines
        document = store.engine.explain_plan(
            pgql["EQ1"], format="json", language="pgql"
        )
        assert document["language"] == "pgql"
        assert document["form"] == "select"

    def test_trace_carries_the_pgql_spans(self, store, suites):
        _, pgql = suites
        saved = store.engine.trace
        store.engine.trace = True
        try:
            result = store.engine.pgql(pgql["EQ1"])
        finally:
            store.engine.trace = saved
        names = {span.name for span in result.stats.trace.spans}
        assert {"pgql.parse", "pgql.compile", "plan", "execute"} <= names
        assert all(
            name in _trace.PIPELINE_SPAN_NAMES
            for name in names
            if not name.startswith("op.")
        )

    def test_snapshot_invalidation_applies_to_pgql_plans(self, dataset):
        graph, tag, _ = dataset
        store = _store(dataset, MODEL_NG)
        query = f"MATCH (n {{hasTag: '{tag}'}}) RETURN n"
        first = _multiset(store.pgql(query))
        iri = store.vocabulary.vertex_iri(10 ** 6).value
        tag_iri = store.vocabulary.key_iri("hasTag").value
        store.update(
            f'INSERT DATA {{ <{iri}> <{tag_iri}> "{tag}" }}', model="pg"
        )
        second = _multiset(store.pgql(query))
        assert sum(second.values()) == sum(first.values()) + 1
