"""Parameterised plans: one cached plan per query shape.

The plan cache keys on the query with its constants lifted to slots
(:func:`repro.sparql.plancache.lift`) and the executor binds the
constants per run, so these suites check three things:

* differentially, that a query answered by a plan cached for another
  constant equals a fresh ``compile_query`` of the concrete query and
  the reference evaluator — with the constant present, absent,
  inserted after the shape was cached, or deleted after it was cached,
  on the NG and SP encodings;
* on the cache counters, that a Zipf stream of point queries runs at a
  hit rate near 1 from one entry per shape, that DML keeps entries and
  a statistics-epoch move drops them;
* that EXPLAIN shows the bound constants, never the slots.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MODEL_NG, MODEL_SP, PropertyGraphRdfStore
from repro.datasets.twitter import TwitterConfig, generate_twitter
from repro.obs import metrics
from repro.rdf import Literal, Quad
from repro.sparql import SparqlEngine
from repro.sparql.ast import AskQuery, Param
from repro.sparql.executor import compile_query, execute
from repro.sparql.physical import render_physical
from repro.sparql.plancache import lift, statistics_epoch
from repro.sparql.results import SelectResult
from repro.store import SemanticNetwork
from repro.testing.reference import Evaluator

from .conftest import ex

#: Constants drawn as "absent" come from here up and are never
#: inserted; "inserted" constants come from ``FRESH``.
ABSENT = 9_000_000
FRESH = 8_000_000


@pytest.fixture(scope="module")
def graph():
    return generate_twitter(TwitterConfig(egos=3, seed=7))


@pytest.fixture(scope="module")
def stores(graph):
    built = {}
    for model in (MODEL_NG, MODEL_SP):
        store = PropertyGraphRdfStore(model=model)
        store.load(graph)
        built[model] = store
    return built


def matched(answer) -> bool:
    return answer if isinstance(answer, bool) else bool(answer[1])


def canonical(result):
    if isinstance(result, bool):
        return result
    assert isinstance(result, SelectResult)
    return tuple(result.variables), sorted(
        tuple(repr(term) for term in row) for row in result.rows
    )


class Shape:
    """A query shape over one constant, and the quads that make a new
    constant match it."""

    def __init__(self, kind, lang, text, facts):
        self.kind = kind  # "vertex" | "edge" | "tag"
        self.lang = lang
        self.text = text
        self.facts = facts

    def term(self, store, constant):
        vocab = store.vocabulary
        if self.kind == "vertex":
            return vocab.vertex_iri(constant)
        if self.kind == "edge":
            return vocab.edge_iri(constant)
        return vocab.value_literal(constant)


def shapes(store):
    vocab = store.vocabulary
    follows = vocab.label_iri("follows")
    has_tag = vocab.key_iri("hasTag")
    vertex = vocab.vertex_iri
    anchor, other = vertex(0), vertex(1)

    def edge_to(c):
        return [Quad(vertex(c), follows, anchor)]

    return {
        "pgql_neighbors": Shape(
            "vertex", "pgql",
            lambda c: f"MATCH (n)-[:follows]->(m) WHERE id(n)={c} RETURN m",
            edge_to,
        ),
        "sparql_node_kvs": Shape(
            "vertex", "sparql",
            lambda c: f"SELECT ?k ?v WHERE {{ <{vertex(c).value}> ?k ?v }}",
            lambda c: [Quad(vertex(c), vocab.key_iri("name"), Literal("n"))],
        ),
        "sparql_tag": Shape(
            "tag", "sparql", store.queries.eq1,
            lambda c: [Quad(anchor, has_tag, vocab.value_literal(c))],
        ),
        "sparql_2hop": Shape(
            "vertex", "sparql",
            lambda c: store.queries.eq11(vertex(c).value, 2),
            lambda c: [Quad(vertex(c), follows, anchor),
                       Quad(anchor, follows, other)],
        ),
        "ask_edge": Shape(
            "vertex", "sparql",
            lambda c: (
                f"ASK {{ <{vertex(c).value}> <{follows.value}> "
                f"<{anchor.value}> }}"
            ),
            edge_to,
        ),
        "graph_iri": Shape(
            "edge", "sparql",
            lambda c: (
                f"SELECT ?s ?o WHERE {{ GRAPH <{vocab.edge_iri(c).value}> "
                f"{{ ?s <{follows.value}> ?o }} }}"
            ),
            lambda c: [Quad(anchor, follows, other, vocab.edge_iri(c))],
        ),
        "filter_eq": Shape(
            "vertex", "sparql",
            lambda c: (
                f"SELECT ?n WHERE {{ ?n <{follows.value}> ?m "
                f"FILTER (?m = <{vertex(c).value}>) }}"
            ),
            lambda c: [Quad(anchor, follows, vertex(c))],
        ),
    }


def universe(graph, kind):
    if kind == "vertex":
        return sorted(v.id for v in graph.vertices())
    if kind == "edge":
        return sorted(e.id for e in graph.edges())
    return sorted(
        {tag for v in graph.vertices() for tag in v.property_values("hasTag")}
    )


def run(store, shape, constant):
    text = shape.text(constant)
    if shape.lang == "pgql":
        return store.engine.pgql(text)
    return store.engine.query(text)


def fresh_and_reference(store, shape, constant):
    """The concrete query compiled from scratch, and the oracle."""
    engine = store.engine
    text = shape.text(constant)
    if shape.lang == "pgql":
        ast = engine._front_end(text, "pgql")[0]
    else:
        ast = engine._parse_query(text)
    snapshot = store.network.snapshot()
    model = snapshot.model("pg")
    fresh = execute(compile_query(ast, snapshot, model, "pg"), snapshot, model)
    oracle = Evaluator(store.network, store.network.model("pg"))
    reference = oracle.ask(ast) if isinstance(ast, AskQuery) else oracle.select(ast)
    return canonical(fresh), canonical(reference)


def epoch(store):
    return statistics_epoch(store.network.snapshot().model("pg"))


SHAPE_NAMES = [
    "pgql_neighbors", "sparql_node_kvs", "sparql_tag", "sparql_2hop",
    "ask_edge", "graph_iri", "filter_eq",
]


class TestCachedPlansMatchFreshPlansAndTheOracle:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        encoding=st.sampled_from([MODEL_NG, MODEL_SP]),
        name=st.sampled_from(SHAPE_NAMES),
        mode=st.sampled_from(["present", "absent", "inserted", "deleted"]),
        pick=st.integers(min_value=0, max_value=10_000),
    )
    def test_every_binding_mode(
        self, graph, stores, encoding, name, mode, pick
    ):
        store = stores[encoding]
        shape = shapes(store)[name]
        known = universe(graph, shape.kind)
        warm = known[0]
        if mode in ("present", "deleted"):
            constant = known[pick % len(known)]
        elif shape.kind == "tag":
            base = "#absent" if mode == "absent" else "#fresh"
            constant = f"{base}{pick}"
        else:
            constant = (ABSENT if mode == "absent" else FRESH) + pick
        network = store.network
        store.engine.plan_cache.clear()
        run(store, shape, warm)  # caches the shape for another constant
        cached_at = epoch(store)
        if mode == "deleted":
            run(store, shape, constant)
            term = shape.term(store, constant)
            changed = [
                q for q in network.quads("pg")
                if term in (q.subject, q.object, q.graph)
            ]
            for quad in changed:
                network.delete("pg", quad)
        elif mode == "inserted":
            changed = [
                q for q in shape.facts(constant)
                if network.insert("pg", q)
            ]
        else:
            changed = []
        same_epoch = epoch(store) == cached_at
        hits = store.engine.plan_cache.stats()["hits"]
        try:
            cached = canonical(run(store, shape, constant))
            fresh, reference = fresh_and_reference(store, shape, constant)
        finally:
            for quad in changed:
                if mode == "deleted":
                    network.insert("pg", quad)
                else:
                    network.delete("pg", quad)
        assert cached == fresh == reference
        if name != "sparql_2hop":  # a COUNT answers even when empty
            if mode == "inserted":
                assert matched(cached)
            elif mode == "absent":
                assert not matched(cached)
        if same_epoch:
            assert store.engine.plan_cache.stats()["hits"] == hits + 1

    def test_old_snapshot_through_a_newer_plan_returns_the_old_answer(self):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load(
            "m", [Quad(ex(f"s{i}"), ex("p"), ex("o")) for i in range(5)]
        )
        engine = SparqlEngine(network, default_model="m")
        text = "SELECT ?s WHERE { ?s <http://ex/p> <http://ex/o> }"
        old = network.snapshot()
        old_rows = canonical(engine.select(text))
        network.insert("m", Quad(ex("s5"), ex("p"), ex("o")))
        engine.plan_cache.clear()
        # Compiled (a miss) against the newer snapshot ...
        assert len(engine.select(text).rows) == 6
        assert engine.plan_cache.stats()["misses"] == 2
        # ... and run (a hit) against the older one.
        again = engine.run_ast(engine._parse_query(text), snapshot=old)
        assert engine.plan_cache.stats()["hits"] == 1
        assert canonical(again) == old_rows


# ----------------------------------------------------------------------
# Cache counters
# ----------------------------------------------------------------------


def zipf_draw(rng, items):
    weights = [1.0 / rank ** 1.1 for rank in range(1, len(items) + 1)]
    return rng.choices(items, weights)[0]


class TestPlanCacheCounters:
    def test_zipf_point_stream_hits_one_entry_per_shape(self, graph, stores):
        store = stores[MODEL_NG]
        point = {name: shapes(store)[name] for name in SHAPE_NAMES[:5]}
        store.engine.plan_cache.clear()
        before = store.engine.plan_cache.stats()
        rng = random.Random(7)
        vertices = universe(graph, "vertex")
        tags = universe(graph, "tag")
        for _ in range(400):
            shape = point[rng.choice(sorted(point))]
            items = tags if shape.kind == "tag" else vertices
            run(store, shape, zipf_draw(rng, items))
        after = store.engine.plan_cache.stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        assert hits / (hits + misses) >= 0.95
        assert after["size"] <= len(point)
        assert after["evictions"] == before["evictions"]

    def chain(self, n):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load(
            "m",
            [Quad(ex(f"v{i}"), ex("follows"), ex(f"v{i + 1}")) for i in range(n)],
        )
        return network, SparqlEngine(network, prefixes={"ex": "http://ex/"},
                                     default_model="m")

    def test_dml_between_two_reads_is_still_a_hit(self):
        network, engine = self.chain(20)
        assert engine.ask("ASK { ex:v3 ex:follows ex:v4 }")
        network.delete("m", Quad(ex("v3"), ex("follows"), ex("v4")))
        assert not engine.ask("ASK { ex:v3 ex:follows ex:v4 }")
        engine.update("INSERT DATA { ex:v3 ex:follows ex:v4 }")
        assert engine.ask("ASK { ex:v5 ex:follows ex:v6 }")
        stats = engine.plan_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 2

    def test_index_change_is_a_miss(self):
        network, engine = self.chain(20)
        text = "SELECT ?b WHERE { ex:v1 ex:follows ?b }"
        engine.select(text)
        with network.write_batch():
            network.model("m").create_index("SPCGM")
        engine.select(text)
        assert engine.plan_cache.stats()["misses"] == 2

    def test_quad_count_crossing_a_power_of_two_is_a_miss(self):
        network, engine = self.chain(15)  # 15 quads: [8, 16)
        text = "SELECT ?b WHERE { ex:v1 ex:follows ?b }"
        engine.select(text)
        network.insert("m", Quad(ex("x"), ex("follows"), ex("y")))
        assert len(engine.select(text).rows) == 1
        stats = engine.plan_cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_other_model_is_another_entry(self):
        network, engine = self.chain(5)
        network.create_model("other")
        text = "SELECT ?b WHERE { ex:v1 ex:follows ?b }"
        engine.select(text)
        engine.select(text, model="other")
        assert len(engine.plan_cache) == 2

    def test_lifted_positions(self):
        ast = SparqlEngine(SemanticNetwork())._parse_query(
            "SELECT ?x WHERE { <http://ex/a> <http://ex/p> ?x . "
            '?x <http://ex/q> "lit" GRAPH <http://ex/g> { ?x ?p ?o } '
            "VALUES ?y { <http://ex/b> } FILTER (?x = <http://ex/c>) "
            "FILTER (?x != <http://ex/d>) } LIMIT 3"
        )
        shape, values = lift(ast)
        assert [term.n3() for term in values] == [
            "<http://ex/a>", '"lit"', "<http://ex/g>", "<http://ex/c>",
        ]
        other, _ = lift(
            SparqlEngine(SemanticNetwork())._parse_query(
                "SELECT ?x WHERE { <http://ex/z> <http://ex/p> ?x . "
                '?x <http://ex/q> "other" GRAPH <http://ex/h> { ?x ?p ?o } '
                "VALUES ?y { <http://ex/b> } FILTER (?x = <http://ex/e>) "
                "FILTER (?x != <http://ex/d>) } LIMIT 3"
            )
        )
        assert other == shape and hash(other) == hash(shape)
        first = shape.where.elements[0]
        assert isinstance(first.subject, Param)
        assert not isinstance(first.predicate, Param)


# ----------------------------------------------------------------------
# EXPLAIN shows bound constants
# ----------------------------------------------------------------------


class TestExplainRendersBoundConstants:
    def test_shape_plans_render_like_concrete_plans(self, graph, stores):
        store = stores[MODEL_NG]
        engine = store.engine
        vocab = store.vocabulary
        suite = store.queries.experiment_queries(
            universe(graph, "tag")[0], vocab.vertex_iri(0).value
        )
        snapshot = store.network.snapshot()
        model = snapshot.model("pg")
        for name, text in suite.items():
            ast = engine._parse_query(text)
            concrete = compile_query(ast, snapshot, model, "pg")
            shaped = compile_query(lift(ast)[0], snapshot, model, "pg")
            assert render_physical(shaped.root) == render_physical(
                concrete.root
            ), name

    def test_analyze_reports_this_runs_constant(self, stores):
        store = stores[MODEL_NG]
        vertex = store.vocabulary.vertex_iri
        template = "SELECT ?k ?v WHERE {{ <{}> ?k ?v }}"
        store.engine.plan_cache.clear()
        store.select(template.format(vertex(1).value))
        analysis = store.engine.explain(
            template.format(vertex(2).value), analyze=True
        )
        assert analysis.stats.plan_cache()["hits"] == 1
        details = " ".join(step.detail for step in analysis.steps)
        assert vertex(2).n3() in details
        assert vertex(1).n3() not in details


class TestAbsentConstantsAtExecuteTime:
    def test_graph_iri_without_patterns_follows_the_store(self):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load(  # 4 quads: one more stays inside [4, 8)
            "m", [Quad(ex("a"), ex("p"), ex(f"b{i}"), ex("g1")) for i in range(4)]
        )
        engine = SparqlEngine(network, default_model="m")
        template = "SELECT ?x WHERE {{ GRAPH <http://ex/{}> {{ VALUES ?x {{ 1 }} }} }}"
        assert len(engine.select(template.format("g1")).rows) == 1
        assert engine.select(template.format("g2")).rows == []
        network.insert("m", Quad(ex("a"), ex("p"), ex("b"), ex("g2")))
        assert len(engine.select(template.format("g2")).rows) == 1
        assert engine.plan_cache.stats()["misses"] == 1

    def test_absent_seed_is_counted_and_empty(self):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load(
            "m", [Quad(ex("a"), ex("p"), ex(f"b{i}")) for i in range(4)]
        )
        engine = SparqlEngine(network, default_model="m")
        template = "SELECT ?o WHERE {{ ?s <http://ex/p> ?o FILTER (?s = <http://ex/{}>) }}"
        with metrics.enabled(fresh=True) as registry:
            assert len(engine.select(template.format("a")).rows) == 4
            assert engine.select(template.format("zz")).rows == []
            assert registry.counter("filter.sargable_seed") == 2
        network.insert("m", Quad(ex("zz"), ex("p"), ex("c")))
        assert len(engine.select(template.format("zz")).rows) == 1
        assert engine.plan_cache.stats()["misses"] == 1

    def test_absent_constant_of_a_later_step_runs_no_step(self):
        """The shape was ordered for a present constant, so the absent
        one sits in the second step; the first step's guard still
        empties the whole flush before any index is read."""
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load(
            "m",
            [Quad(ex("x1"), ex("rare"), ex("y1"))]
            + [Quad(ex(f"y{i}"), ex("common"), ex("hub")) for i in range(12)],
        )
        engine = SparqlEngine(network, default_model="m")
        template = (
            "SELECT ?x WHERE {{ ?x <http://ex/rare> ?y . "
            "?y <http://ex/common> <http://ex/{}> }}"
        )
        assert len(engine.select(template.format("hub")).rows) == 1
        with metrics.enabled(fresh=True) as registry:
            assert engine.select(template.format("nowhere")).rows == []
            assert registry.counter("index.rows_scanned") == 0
        assert engine.plan_cache.stats()["hits"] == 1
