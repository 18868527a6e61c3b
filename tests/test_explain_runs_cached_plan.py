"""EXPLAIN shows the plan that runs.

A read and its EXPLAIN take one path: the plan cached for the text's
shape (compiled on a miss, on the pinned snapshot), rendered with the
text's own constants.  The suite caches a shape with constants A, for
which the optimizer starts from one pattern, and then explains the same
shape with constants B, for which a fresh compile would start from the
other: every EXPLAIN surface must show the order, indexes and join
methods that EXPLAIN ANALYZE of B reports, with B's constants.  PGQL
gets the access plan and EXPLAIN ANALYZE through the same path.
"""

import json
import urllib.parse
import urllib.request
from collections import Counter

import pytest

from repro.core import MODEL_NG, PropertyGraphRdfStore
from repro.datasets.twitter import (
    TwitterConfig,
    connected_tag,
    generate_twitter,
    hub_vertex,
)
from repro.pgql import pgql_experiment_queries
from repro.server import SparqlServer
from repro.sparql.executor import compile_query
from repro.sparql.physical import access_plan

FOLLOWS = "<http://pg/r/follows>"
HAS_TAG = "<http://pg/k/hasTag>"
TEMPLATE = "SELECT ?x WHERE {{ ?x r:follows {} . ?x k:hasTag {} }}"


@pytest.fixture(scope="module")
def graph():
    return generate_twitter(TwitterConfig(egos=3, seed=7))


@pytest.fixture(scope="module")
def store(graph):
    built = PropertyGraphRdfStore(model=MODEL_NG)
    built.load(graph)
    return built


def _counts(store, predicate):
    text = f"SELECT ?s ?o WHERE {{ ?s {predicate} ?o }}"
    return Counter(row[1] for row in store.select(text).rows).most_common()


@pytest.fixture(scope="module")
def constants(store):
    """A: the most-followed vertex and the rarest tag (tag first);
    B: the least-followed vertex and the commonest tag (follows first)."""
    followed, tags = _counts(store, FOLLOWS), _counts(store, HAS_TAG)
    a = (followed[0][0].n3(), tags[-1][0].n3())
    b = (followed[-1][0].n3(), tags[0][0].n3())
    return a, b


def _fresh_order(store, text):
    """Predicates of a fresh compile of ``text``, in run order."""
    snapshot = store.network.snapshot()
    model = snapshot.model("pg")
    compiled = compile_query(
        store.engine._parse_query(text), snapshot, model, "pg"
    )
    lines = access_plan(compiled.root, model, snapshot.lookup_term)
    return [
        FOLLOWS if FOLLOWS in line.split("[")[0] else HAS_TAG
        for line in lines
    ]


@pytest.fixture
def cached_a(store, constants):
    """B's text, after A's run cached the shape."""
    a, b = constants
    store.engine.plan_cache.clear()
    store.select(TEMPLATE.format(*a))
    return TEMPLATE.format(*b)


def _pattern_steps(analysis):
    return [step for step in analysis.steps if step.operator == "pattern"]


class TestExplainShowsTheCachedPlan:
    def test_a_and_b_plan_in_opposite_orders(self, store, constants):
        a, b = constants
        order_a = _fresh_order(store, TEMPLATE.format(*a))
        order_b = _fresh_order(store, TEMPLATE.format(*b))
        assert order_a == [HAS_TAG, FOLLOWS]
        assert order_b == list(reversed(order_a))

    def test_access_plan_matches_analyze(self, store, constants, cached_a):
        a, b = constants
        misses = store.engine.plan_cache.stats()["misses"]
        lines = store.engine.explain(cached_a)
        steps = _pattern_steps(store.engine.explain(cached_a, analyze=True))
        assert len(lines) == len(steps) == 2
        for number, (line, step) in enumerate(zip(lines, steps), start=1):
            assert line.startswith(
                f"{number}: {step.detail}  [{step.bound}] "
                f"{step.index_specs[0]}M ("
            )
            assert line.endswith(f", {step.join_method})")
        text = "\n".join(lines)
        assert all(constant in text for constant in b)
        assert not any(constant in text for constant in a)
        assert store.engine.plan_cache.stats()["misses"] == misses

    def test_plan_trees_match_analyze(self, store, constants, cached_a):
        a, b = constants
        steps = _pattern_steps(store.engine.explain(cached_a, analyze=True))
        run_order = [step.detail for step in steps]
        lines = store.engine.explain_plan(cached_a)
        physical = lines[next(
            i for i, line in enumerate(lines)
            if line.startswith("Physical plan")
        ):]
        document = store.engine.explain_plan(cached_a, format="json")
        self._assert_tree(physical, run_order, a, b)
        self._assert_tree(_labels(document["physical"]), run_order, a, b)
        for tree in ("logical", "optimized"):
            rendered = " ".join(_labels(document[tree]))
            assert all(constant in rendered for constant in b)
            assert not any(constant in rendered for constant in a)

    def test_http_explain_matches_analyze(self, store, constants, cached_a):
        a, b = constants
        steps = _pattern_steps(store.engine.explain(cached_a, analyze=True))
        query = urllib.parse.quote(cached_a)
        with SparqlServer(store.engine) as running:
            url = f"http://127.0.0.1:{running.port}/explain?query={query}"
            with urllib.request.urlopen(url, timeout=10) as response:
                document = json.loads(response.read().decode("utf-8"))
        self._assert_tree(
            _labels(document["physical"]),
            [step.detail for step in steps], a, b,
        )

    @staticmethod
    def _assert_tree(lines, run_order, a, b):
        """Root-first tree lines: the first step is the deepest one."""
        positions = [
            next(i for i, line in enumerate(lines) if detail in line)
            for detail in run_order
        ]
        assert positions == sorted(positions, reverse=True)
        text = "\n".join(lines)
        assert all(constant in text for constant in b)
        assert not any(constant in text for constant in a)


def _labels(node):
    """A JSON plan tree's labels, root first."""
    labels = [node["label"]]
    for child in node.get("children", ()):
        labels.extend(_labels(child))
    return labels


class TestPgqlExplain:
    @pytest.fixture(scope="class")
    def pgql(self, graph):
        hub = hub_vertex(graph)
        return {
            "EQ1": pgql_experiment_queries(connected_tag(graph), hub)["EQ1"],
            "edge_kv": (
                "MATCH (n)-[e:follows]->(m) "
                f"WHERE id(n) = {hub} RETURN m, properties(e)"
            ),
        }

    @pytest.mark.parametrize("name", ["EQ1", "edge_kv"])
    def test_access_plan_and_analyze(self, store, pgql, name):
        engine = store.engine
        lines = engine.explain(pgql[name], language="pgql")
        analysis = engine.explain(pgql[name], language="pgql", analyze=True)
        steps = _pattern_steps(analysis)
        assert lines and len(lines) == len(steps)
        for line, step in zip(lines, steps):
            assert step.detail in line
        assert analysis.stats.rows == len(engine.pgql(pgql[name]))
        assert analysis.stats.rows > 0
