"""Evaluator tests: SPARQL Update."""

import pytest

from repro.rdf import IRI, Literal, Quad
from repro.store import SemanticNetwork
from repro.sparql import SparqlEngine

EX = "http://ex/"


def ex(name):
    return IRI(EX + name)


@pytest.fixture
def engine():
    net = SemanticNetwork()
    net.create_model("m")
    net.bulk_load(
        "m",
        [
            Quad(ex("a"), ex("old"), ex("b")),
            Quad(ex("b"), ex("old"), ex("c")),
            Quad(ex("a"), ex("name"), Literal("A")),
        ],
    )
    return SparqlEngine(net, prefixes={"ex": EX}, default_model="m")


class TestInsertDeleteData:
    def test_insert_data(self, engine):
        counts = engine.update('INSERT DATA { ex:x ex:name "X" }')
        assert counts == {"inserted": 1, "deleted": 0}
        assert engine.ask('ASK { ex:x ex:name "X" }')

    def test_insert_data_into_named_graph(self, engine):
        engine.update("INSERT DATA { GRAPH ex:g { ex:x ex:p ex:y } }")
        assert engine.ask("ASK { GRAPH ex:g { ex:x ex:p ex:y } }")

    def test_insert_duplicate_not_counted(self, engine):
        engine.update("INSERT DATA { ex:n ex:p ex:o }")
        counts = engine.update("INSERT DATA { ex:n ex:p ex:o }")
        assert counts["inserted"] == 0

    def test_delete_data(self, engine):
        counts = engine.update("DELETE DATA { ex:a ex:old ex:b }")
        assert counts["deleted"] == 1
        assert not engine.ask("ASK { ex:a ex:old ex:b }")

    def test_delete_missing_data(self, engine):
        counts = engine.update("DELETE DATA { ex:zz ex:old ex:b }")
        assert counts["deleted"] == 0


class TestModify:
    def test_delete_insert_where(self, engine):
        counts = engine.update(
            "DELETE { ?x ex:old ?y } INSERT { ?x ex:new ?y } "
            "WHERE { ?x ex:old ?y }"
        )
        assert counts == {"inserted": 2, "deleted": 2}
        assert not engine.ask("ASK { ?x ex:old ?y }")
        assert engine.ask("ASK { ex:a ex:new ex:b }")

    def test_delete_where_shorthand(self, engine):
        engine.update("DELETE WHERE { ?x ex:old ?y }")
        assert not engine.ask("ASK { ?x ex:old ?y }")

    def test_insert_only_where(self, engine):
        engine.update(
            'INSERT { ?x ex:label "node" } WHERE { ?x ex:old ?y }'
        )
        result = engine.select("SELECT ?x WHERE { ?x ex:label ?l }")
        assert len(result) == 2

    def test_where_with_filter(self, engine):
        engine.update(
            "DELETE { ?x ex:old ?y } WHERE { ?x ex:old ?y "
            "FILTER (?x = ex:a) }"
        )
        assert not engine.ask("ASK { ex:a ex:old ?y }")
        assert engine.ask("ASK { ex:b ex:old ?y }")

    def test_update_locating_cost_is_query_shaped(self, engine):
        # The paper: "time taken to locate existing quads to delete ...
        # is tied to query performance."  Behavioural check: a modify
        # whose WHERE matches nothing deletes nothing.
        counts = engine.update(
            "DELETE { ?x ex:old ?y } WHERE { ?x ex:old ?y . ?x ex:nope ?z }"
        )
        assert counts == {"inserted": 0, "deleted": 0}


class TestClear:
    def test_clear_all(self, engine):
        counts = engine.update("CLEAR ALL")
        assert counts["deleted"] == 3
        assert not engine.ask("ASK { ?s ?p ?o }")

    def test_clear_graph(self, engine):
        engine.update("INSERT DATA { GRAPH ex:g { ex:x ex:p ex:y } }")
        counts = engine.update("CLEAR GRAPH ex:g")
        assert counts["deleted"] == 1
        assert engine.ask("ASK { ex:a ex:name ?n }")

    def test_clear_unknown_graph(self, engine):
        assert engine.update("CLEAR GRAPH ex:missing")["deleted"] == 0


class TestSequences:
    def test_sequence_of_operations(self, engine):
        counts = engine.update(
            "INSERT DATA { ex:t ex:p ex:u } ; DELETE DATA { ex:t ex:p ex:u }"
        )
        assert counts == {"inserted": 1, "deleted": 1}
        assert not engine.ask("ASK { ex:t ex:p ex:u }")

    def test_update_on_virtual_model_rejected(self, engine):
        from repro.store import StoreError

        engine.network.create_virtual_model("v", ["m"])
        with pytest.raises(StoreError):
            engine.update("INSERT DATA { ex:q ex:p ex:r }", model="v")


class TestGraphVariableTemplates:
    def test_modify_with_graph_variable_templates(self):
        """The NG edge-KV rename idiom: DELETE/INSERT inside GRAPH ?e."""
        from repro import PropertyGraph, PropertyGraphRdfStore

        graph = PropertyGraph()
        graph.add_vertex(1)
        graph.add_vertex(2)
        graph.add_edge(1, "follows", 2, {"since": 2007}, edge_id=3)
        store = PropertyGraphRdfStore(model="NG")
        store.load(graph)
        counts = store.update(
            "DELETE { GRAPH ?e { ?e <http://pg/k/since> ?y } } "
            "INSERT { GRAPH ?e { ?e <http://pg/k/sinceYear> ?y } } "
            "WHERE { GRAPH ?e { ?e <http://pg/k/since> ?y } }"
        )
        assert counts == {"inserted": 1, "deleted": 1}
        # The rewritten KV stays inside the edge's named graph, so the
        # NG round trip still decodes.
        rebuilt = store.to_property_graph()
        assert rebuilt.edge(3).get_property("sinceYear") == 2007
        assert rebuilt.edge(3).get_property("since") is None


class TestWhereFollowsFilterPushdown:
    QUADS = [
        Quad(ex(s), ex("p"), ex(o))
        for s in ("a", "b", "c")
        for o in ("x", "y")
    ]
    TEXT = "DELETE { ?s ex:p ?o } WHERE { ?s ex:p ?o FILTER (?s = ex:a) }"

    @pytest.mark.parametrize("pushdown", [True, False])
    def test_where_plan_and_answer_follow_the_engine_setting(self, pushdown):
        from repro.obs import metrics
        from repro.sparql.ast import SelectQuery
        from repro.testing.reference import Evaluator

        net = SemanticNetwork()
        net.create_model("m")
        net.bulk_load("m", self.QUADS)
        engine = SparqlEngine(
            net, prefixes={"ex": EX}, default_model="m",
            filter_pushdown=pushdown,
        )
        where = engine._parser.parse_update(self.TEXT).operations[0].where
        oracle = Evaluator(net, net.model("m"), filter_pushdown=pushdown)
        matched = {
            Quad(s, ex("p"), o)
            for s, o in oracle.select(SelectQuery((), where)).rows
        }
        with metrics.enabled(fresh=True) as registry:
            counts = engine.update(self.TEXT)
            seeded = registry.counter("filter.sargable_seed")
            at_group_end = registry.counter("filter.group_end")
        # Pushed, the filter becomes a seeded column; not pushed, it
        # runs once at the group's end.
        assert (seeded, at_group_end) == ((1, 0) if pushdown else (0, 1))
        assert counts["deleted"] == len(matched) == 2
        assert set(net.quads("m")) == set(self.QUADS) - matched
