"""Evaluator tests: GRAPH clauses and dataset semantics."""

import pytest

from repro.rdf import IRI, Literal, Quad
from repro.store import SemanticNetwork
from repro.sparql import SparqlEngine

EX = "http://ex/"


def ex(name):
    return IRI(EX + name)


@pytest.fixture
def network():
    net = SemanticNetwork()
    net.create_model("m", index_specs=["PCSGM", "PSCGM", "GSPCM"])
    net.bulk_load(
        "m",
        [
            Quad(ex("a"), ex("p"), ex("b")),  # default graph
            Quad(ex("a"), ex("p"), ex("c"), ex("g1")),
            Quad(ex("g1"), ex("k"), Literal("v1"), ex("g1")),
            Quad(ex("b"), ex("p"), ex("c"), ex("g2")),
            Quad(ex("g2"), ex("k"), Literal("v2"), ex("g2")),
        ],
    )
    return net


def engine(net, semantics="union"):
    return SparqlEngine(
        net, prefixes={"ex": EX}, default_model="m",
        default_graph_semantics=semantics,
    )


class TestUnionSemantics:
    def test_pattern_outside_graph_sees_all_graphs(self, network):
        result = engine(network).select("SELECT ?s WHERE { ?s ex:p ?o }")
        assert len(result) == 3

    def test_strict_semantics_sees_default_only(self, network):
        result = engine(network, "strict").select(
            "SELECT ?s WHERE { ?s ex:p ?o }"
        )
        assert len(result) == 1
        assert result.rows[0][0] == ex("a")


class TestGraphClause:
    def test_graph_variable_binds_named_graphs_only(self, network):
        result = engine(network).select(
            "SELECT ?g WHERE { GRAPH ?g { ?s ex:p ?o } }"
        )
        graphs = sorted(t.value for t in result.column("g"))
        assert graphs == [EX + "g1", EX + "g2"]

    def test_graph_constant(self, network):
        result = engine(network).select(
            "SELECT ?s WHERE { GRAPH ex:g1 { ?s ex:p ?o } }"
        )
        assert result.rows == [(ex("a"),)]

    def test_graph_constant_unknown(self, network):
        result = engine(network).select(
            "SELECT ?s WHERE { GRAPH ex:missing { ?s ex:p ?o } }"
        )
        assert len(result) == 0

    def test_graph_var_shared_across_patterns(self, network):
        # The paper's NG idiom: the graph IRI is also a subject.
        result = engine(network).select(
            "SELECT ?o ?v WHERE { GRAPH ?g { ?s ex:p ?o . ?g ex:k ?v } }"
        )
        pairs = {
            (row["o"].value, row["v"].lexical) for row in result
        }
        assert pairs == {(EX + "c", "v1"), (EX + "c", "v2")}

    def test_graph_var_already_bound_by_earlier_pattern(self, network):
        result = engine(network).select(
            "SELECT ?s WHERE { ex:g1 ex:k ?v . GRAPH ex:g1 { ?s ex:p ?o } }"
        )
        assert result.rows == [(ex("a"),)]

    def test_nested_graph_patterns_join(self, network):
        result = engine(network).select(
            "SELECT ?v1 ?v2 WHERE { GRAPH ex:g1 { ?g1 ex:k ?v1 } "
            "GRAPH ex:g2 { ?g2 ex:k ?v2 } }"
        )
        assert len(result) == 1

    def test_strict_and_graph_clause_compose(self, network):
        eng = engine(network, "strict")
        result = eng.select(
            "SELECT ?s WHERE { ?s ex:p ?o . GRAPH ex:g2 { ?o ex:p ?c } }"
        )
        # default graph: a p b; g2: b p c
        assert result.rows == [(ex("a"),)]


class TestExistsInActiveGraph:
    """SPARQL 1.1 evaluates EXISTS in the active graph: inside a GRAPH
    clause the EXISTS group matches that graph, not the default graph."""

    QUERIES = [
        "SELECT ?x WHERE { GRAPH ex:g1 { ?x ex:likes ?y "
        "FILTER EXISTS { ?x ex:knows ?z } } }",
        "SELECT ?x WHERE { GRAPH ?g { ?x ex:likes ?y "
        "FILTER EXISTS { ?x ex:knows ?z } } }",
    ]

    @pytest.fixture
    def likes_knows(self):
        net = SemanticNetwork()
        net.create_model("m")
        net.bulk_load(
            "m",
            [
                Quad(ex("a"), ex("likes"), ex("b"), ex("g1")),
                Quad(ex("a"), ex("knows"), ex("c"), ex("g2")),
                Quad(ex("d"), ex("likes"), ex("e"), ex("g1")),
                Quad(ex("d"), ex("knows"), ex("f"), ex("g1")),
            ],
        )
        return net

    @pytest.mark.parametrize("semantics", ["union", "strict"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_exists_matches_the_enclosing_graph(
        self, likes_knows, semantics, query
    ):
        # a's `knows` edge is in g2, so only d knows someone in g1.
        eng = engine(likes_knows, semantics)
        assert [row[0] for row in eng.select(query).rows] == [ex("d")]

        from repro.testing.reference import Evaluator

        oracle = Evaluator(
            likes_knows,
            likes_knows.model("m"),
            union_default_graph=semantics == "union",
        ).select(eng._parse_query(query))
        assert [row[0] for row in oracle.rows] == [ex("d")]
