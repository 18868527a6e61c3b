"""Property-based tests (hypothesis) for the core invariants.

* PG -> RDF -> PG is the identity for every model (losslessness);
* Table 2's cardinality formulas hold on arbitrary graphs;
* RF / NG / SP answer edge-KV queries identically;
* index range scans equal naive filtering for arbitrary patterns;
* N-Quads serialization round-trips arbitrary quads;
* relation join/union algebra obeys its laws;
* observability never lies: per-operator rows matched <= rows scanned,
  and collecting metrics never changes query answers.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.core import (
    MODEL_NG,
    MODEL_RF,
    MODEL_SP,
    PropertyGraphRdfStore,
    measure_property_graph,
    measure_rdf,
    predict_rdf,
    transformer_for,
)
from repro.core.roundtrip import rdf_to_property_graph
from repro.propertygraph import PropertyGraph
from repro.rdf import (
    IRI,
    BlankNode,
    Literal,
    Quad,
    XSD,
    parse_nquads_document,
    serialize_nquads,
)
from repro.testing.reference import Relation, join, union
from repro.store import SemanticIndex

MODELS = [MODEL_RF, MODEL_NG, MODEL_SP]

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_KEYS = st.sampled_from(["name", "age", "hasTag", "refs", "weight"])
_LABELS = st.sampled_from(["follows", "knows", "likes"])
_SCALARS = st.one_of(
    st.text(alphabet=string.ascii_letters + "# @", min_size=0, max_size=8),
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def property_graphs(draw):
    """Small random property graphs with multi-valued KVs."""
    graph = PropertyGraph("random")
    vertex_count = draw(st.integers(min_value=1, max_value=8))
    for vertex_id in range(1, vertex_count + 1):
        vertex = graph.add_vertex(vertex_id)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            vertex.add_property(draw(_KEYS), draw(_SCALARS))
    edge_count = draw(st.integers(min_value=0, max_value=12))
    seen = set()
    for _ in range(edge_count):
        source = draw(st.integers(min_value=1, max_value=vertex_count))
        target = draw(st.integers(min_value=1, max_value=vertex_count))
        label = draw(_LABELS)
        # No duplicate (source, label, target) parallel edges: NG keeps
        # one quad per edge while SP/RF's explicit -s-p-o triples have
        # RDF set semantics, so duplicates make topology-only bag
        # queries diverge across models (see EXPERIMENTS.md).
        if (source, label, target) in seen:
            continue
        seen.add((source, label, target))
        edge = graph.add_edge(source, label, target)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            edge.add_property(draw(_KEYS), draw(_SCALARS))
    return graph


def _graph_signature(graph: PropertyGraph):
    """Canonical comparable form of a property graph."""
    vertices = {
        v.id: sorted((k, type(x).__name__, repr(x)) for k, x in v.kv_pairs())
        for v in graph.vertices()
    }
    edges = {
        e.id: (
            e.source,
            e.label,
            e.target,
            sorted((k, type(x).__name__, repr(x)) for k, x in e.kv_pairs()),
        )
        for e in graph.edges()
    }
    return vertices, edges


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(graph=property_graphs(), model=st.sampled_from(MODELS))
    def test_transform_is_lossless(self, graph, model):
        quads = list(transformer_for(model).transform(graph))
        rebuilt = rdf_to_property_graph(quads, model)
        assert _graph_signature(rebuilt) == _graph_signature(graph)

    @settings(max_examples=30, deadline=None)
    @given(graph=property_graphs(), model=st.sampled_from(MODELS))
    def test_transform_deterministic(self, graph, model):
        first = set(transformer_for(model).transform(graph))
        second = set(transformer_for(model).transform(graph))
        assert first == second


class TestCardinalityProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph=property_graphs(), model=st.sampled_from(MODELS))
    def test_table2_formulas(self, graph, model):
        # The closed forms assume no isolated vertices (they add an
        # rdf:type triple): skip those by connecting them.
        if graph.isolated_vertices():
            for vertex_id in graph.isolated_vertices():
                graph.vertex(vertex_id).set_property("name", "x")
        predicted = predict_rdf(measure_property_graph(graph), model)
        measured = measure_rdf(list(transformer_for(model).transform(graph)))
        assert measured.total_quads == predicted.total_quads
        assert measured.named_graphs == predicted.named_graphs
        assert measured.object_property_quads == predicted.object_property_quads
        assert measured.data_property_quads == predicted.data_property_quads


class TestCrossModelQueryProperties:
    @settings(max_examples=20, deadline=None)
    @given(graph=property_graphs())
    def test_edge_kv_query_equivalence(self, graph):
        """Q2 (all follows edges + KVs) agrees across all three models."""
        answers = set()
        for model in MODELS:
            store = PropertyGraphRdfStore(model=model)
            store.load(graph)
            result = store.select(store.queries.q2_edges_with_kvs("follows"))
            rows = tuple(sorted(
                tuple(term.n3() if term else None for term in row)
                for row in result.rows
            ))
            answers.add(rows)
        assert len(answers) == 1

    @settings(max_examples=20, deadline=None)
    @given(graph=property_graphs())
    def test_triangle_count_equivalence(self, graph):
        counts = set()
        for model in MODELS:
            store = PropertyGraphRdfStore(model=model)
            store.load(graph)
            counts.add(
                store.select(store.queries.eq12()).scalar().to_python()
            )
        assert len(counts) == 1


_QUAD_IDS = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
)


class TestIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        quads=st.lists(_QUAD_IDS, max_size=40),
        spec=st.sampled_from(["PCSG", "PSCG", "GSPC", "SPCG", "SCPG", "PC"]),
        pattern=st.tuples(
            st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
            st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
            st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
            st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        ),
    )
    def test_range_scan_equals_naive_filter(self, quads, spec, pattern):
        unique = sorted(set(quads))
        index = SemanticIndex(spec)
        index.bulk_build(unique)
        expected = [
            quad
            for quad in unique
            if all(p is None or quad[i] == p for i, p in enumerate(pattern))
        ]
        assert sorted(index.range_scan(pattern)) == expected

    @settings(max_examples=40, deadline=None)
    @given(quads=st.lists(_QUAD_IDS, max_size=30), extra=_QUAD_IDS)
    def test_insert_equals_rebuild(self, quads, extra):
        unique = sorted(set(quads))
        incremental = SemanticIndex("PCSG")
        incremental.bulk_build(unique)
        if extra not in unique:
            incremental.insert(extra)
        rebuilt = SemanticIndex("PCSG")
        rebuilt.bulk_build(sorted(set(unique + [extra])))
        full = (None, None, None, None)
        assert list(incremental.range_scan(full)) == list(rebuilt.range_scan(full))


_TERMS = st.one_of(
    st.integers(min_value=1, max_value=99).map(lambda i: IRI(f"http://x/{i}")),
    st.text(alphabet=string.printable, max_size=6).map(Literal),
    st.integers(min_value=-99, max_value=99).map(Literal.from_python),
    st.sampled_from(["a", "b1"]).map(BlankNode),
)
_GRAPH_TERMS = st.one_of(
    st.none(),
    st.integers(min_value=1, max_value=9).map(lambda i: IRI(f"http://g/{i}")),
)
_QUADS = st.builds(
    Quad,
    subject=st.integers(min_value=1, max_value=99).map(
        lambda i: IRI(f"http://s/{i}")
    ),
    predicate=st.integers(min_value=1, max_value=9).map(
        lambda i: IRI(f"http://p/{i}")
    ),
    object=_TERMS,
    graph=_GRAPH_TERMS,
)


class TestNquadsProperties:
    @settings(max_examples=100, deadline=None)
    @given(quads=st.lists(_QUADS, max_size=15))
    def test_serialize_parse_roundtrip(self, quads):
        assert parse_nquads_document(serialize_nquads(quads)) == quads


_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    ),
    max_size=8,
)


class TestRelationAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(left_rows=_ROWS, right_rows=_ROWS)
    def test_join_commutative_on_cardinality(self, left_rows, right_rows):
        left = Relation(("a", "b"), left_rows)
        right = Relation(("b", "c"), right_rows)
        forward = join(left, right)
        backward = join(right, left)
        assert forward.cardinality == backward.cardinality

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS)
    def test_join_with_unit_is_identity(self, rows):
        relation = Relation(("a", "b"), rows)
        joined = join(Relation.unit(), relation)
        assert sorted(joined.rows, key=repr) == sorted(relation.rows, key=repr)

    @settings(max_examples=60, deadline=None)
    @given(left_rows=_ROWS, right_rows=_ROWS)
    def test_union_cardinality_adds(self, left_rows, right_rows):
        left = Relation(("a", "b"), left_rows)
        right = Relation(("a", "b"), right_rows)
        assert union([left, right]).cardinality == (
            left.cardinality + right.cardinality
        )

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS)
    def test_compact_preserves_cardinality(self, rows):
        relation = Relation(("a", "b"), rows)
        assert relation.compact().cardinality == relation.cardinality

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS)
    def test_distinct_bounded_by_compact(self, rows):
        relation = Relation(("a", "b"), rows)
        assert len(relation.distinct()) == len(relation.compact())


# ----------------------------------------------------------------------
# Observability invariants
# ----------------------------------------------------------------------

_OBS_QUERIES = [
    # Tag lookup + one hop (index probes).
    "SELECT ?n ?nf WHERE { ?n k:hasTag ?t . ?nf r:follows ?n }",
    # Filter over a scanned column (push-down eligible).
    'SELECT ?n WHERE { ?n k:hasTag ?t FILTER (?t != "never") }',
    # Two-hop traversal with a repeated variable.
    "SELECT ?a ?c WHERE { ?a r:follows ?b . ?b r:follows ?c }",
    # Property path (a closure step).
    "SELECT ?a ?c WHERE { ?a r:follows+ ?c }",
]


class TestObservabilityProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        graph=property_graphs(),
        model=st.sampled_from(MODELS),
        query=st.sampled_from(_OBS_QUERIES),
    )
    def test_rows_matched_bounded_by_rows_scanned(self, graph, model, query):
        """No operator reports more pattern matches than entries examined."""
        store = PropertyGraphRdfStore(model=model)
        store.load(graph)
        analysis = store.explain(query, analyze=True)
        for step in analysis.steps:
            assert step.rows_matched <= step.rows_scanned
        counters = analysis.stats.counters
        assert counters.get("index.rows_matched", 0) <= counters.get(
            "index.rows_scanned", 0
        )

    @settings(max_examples=15, deadline=None)
    @given(
        graph=property_graphs(),
        model=st.sampled_from(MODELS),
        query=st.sampled_from(_OBS_QUERIES),
    )
    def test_metrics_do_not_change_results(self, graph, model, query):
        """Identical answers with instrumentation off, with the global
        registry on, and under a per-query collector."""
        from repro.obs import metrics

        store = PropertyGraphRdfStore(model=model)
        store.load(graph)

        def rows():
            result = store.select(query)
            return sorted(
                tuple(term.n3() if term else None for term in row)
                for row in result.rows
            )

        plain = rows()
        with metrics.enabled(fresh=True):
            with_registry = rows()
        store.engine.collect_stats = True
        try:
            with_collector = rows()
        finally:
            store.engine.collect_stats = False
        assert plain == with_registry == with_collector
