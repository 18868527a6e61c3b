"""EXPLAIN ANALYZE: actuals next to estimates, join-strategy switches."""

import pytest

from repro.core import PropertyGraphRdfStore
from repro.datasets.twitter import TwitterConfig, connected_tag, generate_twitter
from repro.obs import ExplainAnalysis
from repro.rdf import IRI, Quad
from repro.sparql import SparqlEngine
from repro.sparql.plan import (
    HASH_JOIN_MIN_ROWS,
    HASH_JOIN_SCAN_FACTOR,
    decide_join,
)
from repro.store import SemanticNetwork

EX = "http://ex/"


def chain_engine(pairs: int) -> SparqlEngine:
    """``pairs`` two-hop chains a_i -p1-> b_i -p2-> c_i."""
    p1, p2 = IRI(EX + "p1"), IRI(EX + "p2")
    quads = []
    for i in range(pairs):
        a, b, c = (IRI(f"{EX}{kind}{i}") for kind in "abc")
        quads.append(Quad(a, p1, b))
        quads.append(Quad(b, p2, c))
    network = SemanticNetwork()
    network.create_model("chain")
    network.bulk_load("chain", quads)
    return SparqlEngine(network, prefixes={"ex": EX}, default_model="chain")


TWO_HOP = "SELECT ?x ?z WHERE { ?x ex:p1 ?y . ?y ex:p2 ?z }"


class TestJoinStrategySwitch:
    def test_decide_join_thresholds(self):
        at = HASH_JOIN_MIN_ROWS
        assert decide_join(at - 1, 10).method == "NLJ"
        assert decide_join(at, 10).method == "hash join"
        # Probe-side scan too large relative to the input: stay NLJ.
        assert decide_join(at, at * HASH_JOIN_SCAN_FACTOR + 1).method == "NLJ"
        assert decide_join(at, at * HASH_JOIN_SCAN_FACTOR).method == "hash join"

    def test_decision_describes_trigger(self):
        assert str(HASH_JOIN_MIN_ROWS) in decide_join(10, 10).describe()
        hash_reason = decide_join(HASH_JOIN_MIN_ROWS, 10).describe()
        assert hash_reason.startswith("hash join")

    def test_large_intermediate_switches_to_hash_join(self):
        engine = chain_engine(HASH_JOIN_MIN_ROWS + 50)
        analysis = engine.explain(TWO_HOP, analyze=True)
        assert isinstance(analysis, ExplainAnalysis)
        methods = [s.join_method for s in analysis.steps if s.operator == "pattern"]
        assert methods == ["NLJ", "hash join"]
        hash_step = analysis.steps[1]
        assert hash_step.rows_in == HASH_JOIN_MIN_ROWS + 50
        assert hash_step.rows_out == HASH_JOIN_MIN_ROWS + 50
        assert "hash join" in hash_step.join_reason
        # The executed result is the analysis' payload.
        assert analysis.stats.rows == HASH_JOIN_MIN_ROWS + 50

    def test_small_intermediate_stays_nlj(self):
        engine = chain_engine(64)
        analysis = engine.explain(TWO_HOP, analyze=True)
        methods = [s.join_method for s in analysis.steps if s.operator == "pattern"]
        assert methods == ["NLJ", "NLJ"]
        nlj_step = analysis.steps[1]
        # An index NLJ probes once per input row.
        assert nlj_step.probes == 64
        assert "NLJ" in nlj_step.join_reason


class TestAnalysisOutput:
    def test_lines_show_estimates_and_actuals(self):
        engine = chain_engine(8)
        analysis = engine.explain(TWO_HOP, analyze=True)
        text = analysis.render()
        for fragment in ("est=", "in=", "out=", "scanned=", "time="):
            assert fragment in text
        assert "index range scan" in text
        # Summary line closes the plan.
        assert analysis.lines[-1].startswith("--")
        assert "8 rows" in analysis.lines[-1]

    def test_static_explain_unchanged(self):
        engine = chain_engine(8)
        plan = engine.explain(TWO_HOP)
        assert isinstance(plan, list)
        assert all(isinstance(line, str) for line in plan)

    def test_every_query_form_explains(self):
        engine = chain_engine(8)
        describe = "DESCRIBE ?x WHERE { ?x ex:p1 ?y }"
        plan = engine.explain(describe)
        assert len(plan) == 1 and "<http://ex/p1>" in plan[0]
        analysis = engine.explain(describe, analyze=True)
        assert len(analysis.result) == len(engine.query(describe)) > 0

    def test_analyze_does_not_change_results(self):
        engine = chain_engine(32)
        direct = engine.select(TWO_HOP)
        analysis = engine.explain(TWO_HOP, analyze=True)
        assert analysis.result is not None
        assert sorted(map(str, analysis.result.rows)) == sorted(
            map(str, direct.rows)
        )


@pytest.fixture(scope="module")
def model_stores():
    """The paper's three PG-as-RDF models over one small Twitter graph."""
    graph = generate_twitter(TwitterConfig(egos=4, seed=7))
    stores = {}
    for model in ("RF", "NG", "SP"):
        store = PropertyGraphRdfStore(model=model)
        store.load(graph)
        stores[model] = store
    return stores, connected_tag(graph)


@pytest.mark.parametrize(
    "model, query_name",
    [
        ("RF", "eq1"),
        ("NG", "eq1"),
        ("SP", "eq1"),
        # EQ8 exists as the a/b (NG/SP) variants only; on RF its
        # rdfs:subPropertyOf constant is absent from the data and the
        # BGP short-circuits to empty before any pattern executes.
        ("NG", "eq8"),
        ("SP", "eq8"),
    ],
)
def test_eq_variants_populate_actuals(model_stores, model, query_name):
    """EQ1/EQ8 across RF/NG/SP report estimated AND actual rows."""
    stores, tag = model_stores
    store = stores[model]
    query = getattr(store.queries, query_name)(tag)
    analysis = store.explain(query, analyze=True)
    pattern_steps = [s for s in analysis.steps if s.operator == "pattern"]
    assert pattern_steps, f"{model}/{query_name}: no pattern operators"
    for step in pattern_steps:
        assert step.join_method in ("NLJ", "hash join", "cartesian")
        assert step.estimate >= 0
        assert step.probes >= 1
        assert step.rows_matched <= step.rows_scanned
        assert step.index_specs, "scan must name its index"
    # The analysis executed the real query.
    assert analysis.stats.rows == len(store.select(query))


def test_eq8_on_rf_short_circuits_empty(model_stores):
    """RF lacks EQ8's vocabulary: the plan collapses before any scan."""
    stores, tag = model_stores
    store = stores["RF"]
    analysis = store.explain(store.queries.eq8(tag), analyze=True)
    assert analysis.stats.rows == 0
    assert not [s for s in analysis.steps if s.operator == "pattern"]
