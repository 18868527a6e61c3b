"""Evaluator tests: property paths."""

import pytest

from repro.rdf import IRI, Quad
from repro.store import SemanticNetwork
from repro.sparql import SparqlEngine

EX = "http://ex/"


def ex(name):
    return IRI(EX + name)


@pytest.fixture
def chain_engine():
    """n1 -p-> n2 -p-> n3 -p-> n4, n2 -p-> n4 (diamond), n4 -q-> n1."""
    net = SemanticNetwork()
    net.create_model("m")
    net.bulk_load(
        "m",
        [
            Quad(ex("n1"), ex("p"), ex("n2")),
            Quad(ex("n2"), ex("p"), ex("n3")),
            Quad(ex("n3"), ex("p"), ex("n4")),
            Quad(ex("n2"), ex("p"), ex("n4")),
            Quad(ex("n4"), ex("q"), ex("n1")),
        ],
    )
    return SparqlEngine(net, prefixes={"ex": EX}, default_model="m")


def count(engine, query):
    return engine.select(query).scalar().to_python()


class TestSequencePaths:
    def test_two_hop(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?y WHERE { ex:n1 ex:p/ex:p ?y }"
        )
        assert sorted(t.value for t in result.column("y")) == [
            EX + "n3", EX + "n4",
        ]

    def test_three_hop_multiplicity(self, chain_engine):
        # Paths n1->n2->n3->n4 and n1->n2->n4->(none): only one 3-hop path
        # to n4 via n3; plus n1->n2->n4 is 2-hop.  COUNT counts paths.
        assert count(
            chain_engine,
            "SELECT (COUNT(?y) AS ?c) WHERE { ex:n1 ex:p/ex:p/ex:p ?y }",
        ) == 1

    def test_path_counts_are_per_path_not_per_node(self, chain_engine):
        # Two 2-hop paths end at distinct nodes; with a diamond shape
        # n1->n2->{n3,n4} there are exactly 2 paths.
        assert count(
            chain_engine,
            "SELECT (COUNT(?y) AS ?c) WHERE { ex:n1 ex:p/ex:p ?y }",
        ) == 2

    def test_bound_object_direction(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?x WHERE { ?x ex:p/ex:p ex:n4 }"
        )
        assert sorted(t.value for t in result.column("x")) == [
            EX + "n1", EX + "n2",
        ]

    def test_both_ends_bound(self, chain_engine):
        assert chain_engine.ask("ASK { ex:n1 ex:p/ex:p ex:n4 }")
        assert not chain_engine.ask("ASK { ex:n1 ex:p/ex:p ex:n2 }")

    def test_mixed_predicate_sequence(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?y WHERE { ex:n3 ex:p/ex:q ?y }"
        )
        assert [t.value for t in result.column("y")] == [EX + "n1"]


class TestAlternativeAndInverse:
    def test_alternative_all_pairs(self, chain_engine):
        assert count(
            chain_engine,
            "SELECT (COUNT(*) AS ?c) WHERE { ?x (ex:p|ex:q) ?y }",
        ) == 5

    def test_inverse(self, chain_engine):
        result = chain_engine.select("SELECT ?x WHERE { ex:n2 ^ex:p ?x }")
        assert [t.value for t in result.column("x")] == [EX + "n1"]

    def test_inverse_in_sequence(self, chain_engine):
        # n3 <- n2 -> n4: sibling query.
        result = chain_engine.select(
            "SELECT ?sib WHERE { ex:n3 ^ex:p/ex:p ?sib }"
        )
        assert sorted(t.value for t in result.column("sib")) == [
            EX + "n3", EX + "n4",
        ]


    def test_alternative_seeded_by_filter(self, chain_engine):
        # The sargable FILTER seeds every branch of the union.
        result = chain_engine.select(
            "SELECT ?y WHERE { ?x (ex:q|ex:p) ?y FILTER (?x = ex:n1) }"
        )
        assert [t.value for t in result.column("y")] == [EX + "n2"]
        result = chain_engine.select(
            "SELECT ?y WHERE { ?x (ex:q|ex:p)+ ?y FILTER (?x = ex:n3) }"
        )
        assert sorted(t.value for t in result.column("y")) == [
            EX + "n1", EX + "n2", EX + "n3", EX + "n4",
        ]


class TestRepetition:
    def test_star_includes_start(self, chain_engine):
        result = chain_engine.select("SELECT ?y WHERE { ex:n1 ex:p* ?y }")
        nodes = sorted(t.value for t in result.column("y"))
        assert nodes == [EX + "n1", EX + "n2", EX + "n3", EX + "n4"]

    def test_plus_excludes_start_without_cycle(self, chain_engine):
        result = chain_engine.select("SELECT ?y WHERE { ex:n1 ex:p+ ?y }")
        nodes = sorted(t.value for t in result.column("y"))
        assert nodes == [EX + "n2", EX + "n3", EX + "n4"]

    def test_plus_includes_start_on_cycle(self, chain_engine):
        # (p|q)+ from n1 cycles back to n1 via n4 -q-> n1.
        result = chain_engine.select(
            "SELECT ?y WHERE { ex:n1 (ex:p|ex:q)+ ?y }"
        )
        nodes = sorted(t.value for t in result.column("y"))
        assert EX + "n1" in nodes

    def test_question_mark(self, chain_engine):
        result = chain_engine.select("SELECT ?y WHERE { ex:n1 ex:p? ?y }")
        nodes = sorted(t.value for t in result.column("y"))
        assert nodes == [EX + "n1", EX + "n2"]

    def test_star_set_semantics_no_duplicates(self, chain_engine):
        result = chain_engine.select("SELECT ?y WHERE { ex:n1 ex:p* ?y }")
        nodes = [t.value for t in result.column("y")]
        assert len(nodes) == len(set(nodes))

    def test_star_all_pairs(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?x ?y WHERE { ?x ex:q* ?y }"
        )
        # Every node in the q-graph relates to itself, plus n4->n1.
        pairs = {(r["x"].value, r["y"].value) for r in result}
        assert (EX + "n4", EX + "n1") in pairs
        assert (EX + "n4", EX + "n4") in pairs


class TestPathsJoinedWithPatterns:
    def test_path_after_bgp(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?z WHERE { ex:n1 ex:p ?y . ?y ex:p/ex:p ?z }"
        )
        assert [t.value for t in result.column("z")] == [EX + "n4"]

    def test_path_inside_graph_var_unsupported(self, chain_engine):
        from repro.sparql.errors import EvaluationError

        with pytest.raises(EvaluationError):
            chain_engine.select(
                "SELECT ?y WHERE { GRAPH ?g { ex:n1 ex:p/ex:p ?y } }"
            )

    def test_path_with_unknown_predicate(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?y WHERE { ex:n1 ex:nope/ex:p ?y }"
        )
        assert len(result) == 0


class TestLimitCountsSolutions:
    def test_limit_counts_paths_not_rows(self):
        # Two 2-hop paths reach ex:d: one row of multiplicity 2, so
        # LIMIT 1 must still return exactly one solution.
        net = SemanticNetwork()
        net.create_model("m")
        net.bulk_load(
            "m",
            [
                Quad(ex("a"), ex("p"), ex("b")),
                Quad(ex("a"), ex("p"), ex("c")),
                Quad(ex("b"), ex("p"), ex("d")),
                Quad(ex("c"), ex("p"), ex("d")),
            ],
        )
        engine = SparqlEngine(net, prefixes={"ex": EX}, default_model="m")
        for offset, expected in ((0, 1), (1, 1), (2, 0)):
            result = engine.select(
                "SELECT ?y WHERE { ex:a ex:p/ex:p ?y } "
                f"LIMIT 1 OFFSET {offset}"
            )
            assert len(result) == expected


class TestFivehopCounting:
    """A 3-level complete fan (root -> 10 -> 10 -> 10, every node of a
    level following every node of the next) has 1 000 three-hop paths.
    Counting them must not materialise them: each hop is merged away
    after the step that reads it, so no operator emits more than 100
    rows — in the SPARQL path and in its PGQL twin alike."""

    @pytest.fixture(scope="class")
    def fan(self):
        from repro.core import PropertyGraphRdfStore
        from repro.propertygraph.model import PropertyGraph

        graph = PropertyGraph()
        levels = [[0], range(1, 11), range(11, 21), range(21, 31)]
        for vertex in range(31):
            graph.add_vertex(vertex)
        for upper, lower in zip(levels, levels[1:]):
            for source in upper:
                for target in lower:
                    graph.add_edge(source, "follows", target)
        store = PropertyGraphRdfStore(model="NG")
        store.load(graph)
        return store

    @staticmethod
    def _analyze(engine, ast):
        from repro.obs.query import QueryCollector

        collector = QueryCollector()
        result = engine.run_ast(ast, None, collector=collector)
        return result.scalar().to_python(), [
            step.rows_out for step in collector.operators
        ]

    def test_path_explosion_counted_without_materialization(self, fan):
        root = fan.vocabulary.vertex_iri(0).n3()
        text = (
            "SELECT (COUNT(?y) AS ?c) WHERE "
            f"{{ {root} r:follows/r:follows/r:follows ?y }}"
        )
        engine = fan.engine
        paths, rows = self._analyze(engine, engine._parse_query(text))
        assert paths == 1000
        assert rows and max(rows) <= 100

    def test_pgql_twin_counted_without_materialization(self, fan):
        text = (
            "MATCH (n)-[:follows]->()-[:follows]->()-[:follows]->(y) "
            "WHERE id(n) = 0 RETURN COUNT(y) AS c"
        )
        engine = fan.engine
        paths, rows = self._analyze(engine, engine._front_end(text, "pgql")[0])
        assert paths == 1000
        assert rows and max(rows) <= 100


class TestNegatedPropertySets:
    def test_single_negated_iri(self, chain_engine):
        result = chain_engine.select("SELECT ?y WHERE { ex:n4 !ex:p ?y }")
        assert [t.value for t in result.column("y")] == [EX + "n1"]

    def test_negated_set(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?y WHERE { ex:n4 !(ex:p|ex:q) ?y }"
        )
        assert len(result) == 0

    def test_negated_all_pairs(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?x ?y WHERE { ?x !ex:q ?y }"
        )
        assert len(result) == 4  # the four ex:p edges

    def test_negated_bound_object(self, chain_engine):
        result = chain_engine.select("SELECT ?x WHERE { ?x !ex:q ex:n4 }")
        assert sorted(t.value for t in result.column("x")) == [
            EX + "n2", EX + "n3",
        ]

    def test_negated_in_sequence(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?y WHERE { ex:n3 ex:p/!ex:p ?y }"
        )
        assert [t.value for t in result.column("y")] == [EX + "n1"]

    def test_negated_unknown_iri_excludes_nothing(self, chain_engine):
        result = chain_engine.select(
            "SELECT ?y WHERE { ex:n1 !ex:nonexistent ?y }"
        )
        assert len(result) == 1  # the p edge from n1

    @pytest.mark.parametrize("path", ["(!ex:q)+", "(ex:r|!ex:q)+"])
    def test_repeated_negated_set_with_both_ends_free(self, path):
        """A link without a constant predicate starts the walk at every
        node of the active graph, in the pipeline and in the oracle."""
        from repro.testing.reference import Evaluator

        net = SemanticNetwork()
        net.create_model("m")
        net.bulk_load("m", [Quad(ex("a"), ex("p"), ex("b"))])
        engine = SparqlEngine(net, prefixes={"ex": EX}, default_model="m")
        text = f"SELECT ?s ?o WHERE {{ ?s {path} ?o }}"
        expected = [(ex("a"), ex("b"))]
        assert engine.select(text).rows == expected
        oracle = Evaluator(net, net.model("m"))
        assert oracle.select(engine._parse_query(text)).rows == expected

    def test_inverse_member_rejected(self, chain_engine):
        from repro.sparql.errors import ParseError

        with pytest.raises(ParseError):
            chain_engine.select("SELECT ?y WHERE { ex:n1 !(^ex:p) ?y }")

    def test_unparse_roundtrip(self):
        from repro.sparql.parser import Parser
        from repro.sparql.unparse import unparse

        parser = Parser(prefixes={"ex": EX})
        first = parser.parse_query("SELECT ?y WHERE { ex:n1 !(ex:p|ex:q) ?y }")
        assert parser.parse_query(unparse(first)) == first
