"""Planner tests: index selection, join ordering, EXPLAIN (Table 5)."""

import pytest

from repro.rdf import IRI, Literal, Quad
from repro.store import SemanticNetwork
from repro.sparql import SparqlEngine
from repro.sparql.plan import (
    EncodedPattern,
    decide_join,
    order_patterns,
)

EX = "http://ex/"


def ex(name):
    return IRI(EX + name)


@pytest.fixture
def network():
    """Skewed data: many ex:p edges, one ex:name triple."""
    net = SemanticNetwork()
    net.create_model(
        "m", index_specs=["PCSGM", "PSCGM", "SPCGM", "GSPCM", "SCPGM"]
    )
    quads = [Quad(ex(f"s{i}"), ex("p"), ex(f"o{i % 7}")) for i in range(100)]
    quads.append(Quad(ex("s0"), ex("name"), Literal("zero")))
    net.bulk_load("m", quads)
    return net


@pytest.fixture
def engine(network):
    return SparqlEngine(network, prefixes={"ex": EX}, default_model="m")


class TestIndexSelection:
    def test_predicate_bound_uses_pcsg(self, network):
        model = network.model("m")
        p = network.lookup_term(ex("p"))
        index, length = model.choose_index((None, p, None, None))
        assert index.spec in ("PCSG", "PSCG")
        assert length == 1

    def test_predicate_and_subject_uses_pscg(self, network):
        model = network.model("m")
        p = network.lookup_term(ex("p"))
        s = network.lookup_term(ex("s0"))
        index, length = model.choose_index((s, p, None, None))
        assert index.spec == "PSCG"
        assert length == 2

    def test_subject_only_uses_subject_index(self, network):
        model = network.model("m")
        s = network.lookup_term(ex("s0"))
        index, _ = model.choose_index((s, None, None, None))
        assert index.spec in ("SPCG", "SCPG")

    def test_graph_bound_uses_graph_index(self, network):
        model = network.model("m")
        index, _ = model.choose_index((None, None, None, 42))
        assert index.spec == "GSPC"


class TestJoinOrdering:
    def test_selective_pattern_first(self, network):
        model = network.model("m")
        p = network.lookup_term(ex("p"))
        name = network.lookup_term(ex("name"))
        patterns = [
            EncodedPattern("x", p, "y"),        # 100 rows
            EncodedPattern("x", name, "n"),     # 1 row
        ]
        ordered = order_patterns(patterns, model, None)
        assert ordered[0].predicate == name

    def test_connected_patterns_preferred_over_cartesian(self, network):
        model = network.model("m")
        p = network.lookup_term(ex("p"))
        name = network.lookup_term(ex("name"))
        patterns = [
            EncodedPattern("a", name, "n"),   # selective, disconnected from x/y
            EncodedPattern("x", p, "y"),
            EncodedPattern("y", p, "z"),
        ]
        ordered = order_patterns(patterns, model, None)
        # After the selective seed, the next chosen pattern must connect
        # if possible; here nothing connects to ?a, so the two p-patterns
        # are ordered between themselves by estimate and connectivity.
        assert ordered[0].predicate == name
        assert ordered[1].variables() & ordered[2].variables()


class TestJoinMethod:
    def test_small_inputs_use_nlj(self):
        assert decide_join(10, 1_000_000).method == "NLJ"

    def test_large_input_with_comparable_scan_uses_hash(self):
        assert decide_join(100_000, 200_000).method == "hash join"

    def test_large_input_with_huge_scan_uses_nlj(self):
        assert decide_join(10_000, 100_000_000).method == "NLJ"


class TestExplain:
    def test_explain_triangle_query(self, engine):
        lines = engine.explain(
            "SELECT ?x WHERE { ?x ex:p ?y . ?y ex:p ?z . ?z ex:p ?x }"
        )
        assert len(lines) == 3
        # A cyclic BGP is one trie join: each pattern is read once, by a
        # P-leading index range scan, and hashed into a trie.
        for line in lines:
            assert "[P=<http://ex/p>]" in line
            assert "PCSGM" in line or "PSCGM" in line
            assert line.endswith("(index range scan, trie)")

    def test_explain_q3_shape(self, engine):
        """Paper Table 5 / Q3: constant P and C -> PCSGM; then S-bound
        probe with a filter."""
        lines = engine.explain(
            'SELECT ?v WHERE { ?x ex:name "zero" . ?x ?k ?v '
            "FILTER isLiteral(?v) }"
        )
        assert "PCSGM" in lines[0]
        assert any("SCPGM" in line or "SPCGM" in line for line in lines[1:])

    def test_explain_reports_path_steps(self, engine):
        # A fixed-length path is lowered to one pattern step per hop:
        # the second probes the index with the hidden hop bound.
        lines = engine.explain("SELECT ?y WHERE { ex:s0 ex:p/ex:p ?y }")
        assert len(lines) == 2
        assert all("<http://ex/p>" in line for line in lines)
        assert "index range scan, NLJ" in lines[1]

    def test_explain_graph_clause(self, engine):
        lines = engine.explain(
            "SELECT ?s WHERE { GRAPH ?g { ?s ex:p ?o } }"
        )
        assert len(lines) == 1


@pytest.fixture(scope="module")
def twitter_stores():
    from repro.core import MODEL_NG, MODEL_SP, PropertyGraphRdfStore
    from repro.datasets.twitter import (
        TwitterConfig,
        connected_tag,
        generate_twitter,
        hub_vertex,
    )

    graph = generate_twitter(TwitterConfig(egos=5, seed=13))
    stores = {}
    for model in (MODEL_NG, MODEL_SP):
        store = PropertyGraphRdfStore(model=model)
        store.load(graph)
        stores[model] = store
    tag = connected_tag(graph)
    hub_iri = stores[MODEL_NG].vocabulary.vertex_iri(hub_vertex(graph)).value
    return stores, tag, hub_iri


class TestExplainIsTheCompiledPlan:
    """``engine.explain()`` renders the plan that runs: its lines name
    the compiled plan's pattern and path steps in execution order."""

    @pytest.mark.parametrize("model", ["NG", "SP"])
    def test_explain_patterns_equal_compiled_steps(
        self, twitter_stores, model
    ):
        from repro.sparql.executor import compile_query
        from repro.sparql.physical import PatternJoinOp

        def leaf_first(op):
            for child in op.children():
                yield from leaf_first(child)
            yield op

        stores, tag, hub_iri = twitter_stores
        engine = stores[model].engine
        name = engine._model_name(None)
        mismatches = []
        for query_name, text in stores[model].queries.experiment_queries(
            tag, hub_iri
        ).items():
            explained = [
                line.split(": ", 1)[1].split("  ", 1)[0]
                for line in engine.explain(text)
            ]
            compiled = compile_query(
                engine._parse_query(text),
                engine.network,
                engine.network.model(name),
                name,
                union_default_graph=engine._union_default,
            )
            steps = [
                op.detail
                for op in leaf_first(compiled.root)
                if isinstance(op, PatternJoinOp)
            ]
            assert steps, query_name
            if explained != steps:
                mismatches.append((query_name, explained, steps))
        assert not mismatches, mismatches
