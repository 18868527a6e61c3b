"""Differential testing: the optimized engine vs a brute-force oracle.

A naive reference evaluator matches BGPs by enumerating every quad per
pattern and joining dict bindings — no indexes, no planner, no
push-down.  Hypothesis generates random datasets and random BGP/filter
queries; the optimized engine must return exactly the same bag of
solutions.
"""

import itertools
from typing import Dict, List, Optional

from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, Literal, Quad
from repro.sparql import SparqlEngine
from repro.store import SemanticNetwork

EX = "http://ex/"

# ----------------------------------------------------------------------
# Brute-force reference
# ----------------------------------------------------------------------


def reference_bgp(
    quads: List[Quad],
    patterns: List[tuple],
    union_default: bool = True,
) -> List[Dict[str, object]]:
    """Evaluate a BGP by brute force.  Patterns are (s, p, o) with
    '?name' strings as variables and Terms as constants."""
    solutions: List[Dict[str, object]] = [{}]
    for pattern in patterns:
        next_solutions = []
        for binding in solutions:
            for quad in quads:
                candidate = dict(binding)
                ok = True
                for part, value in zip(
                    pattern, (quad.subject, quad.predicate, quad.object)
                ):
                    if isinstance(part, str) and part.startswith("?"):
                        name = part[1:]
                        if name in candidate:
                            if candidate[name] != value:
                                ok = False
                                break
                        else:
                            candidate[name] = value
                    elif part != value:
                        ok = False
                        break
                if ok:
                    next_solutions.append(candidate)
        solutions = next_solutions
    return solutions


def normalize(solutions, variables):
    return sorted(
        tuple(repr(solution.get(v)) for v in variables)
        for solution in solutions
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_SUBJECTS = [IRI(EX + name) for name in "abcdef"]
_PREDICATES = [IRI(EX + name) for name in ("p", "q", "r")]
_OBJECTS = _SUBJECTS + [Literal("x"), Literal("y"), Literal.from_python(1)]
_GRAPHS = [None, IRI(EX + "g1"), IRI(EX + "g2")]

_quads = st.lists(
    st.builds(
        Quad,
        subject=st.sampled_from(_SUBJECTS),
        predicate=st.sampled_from(_PREDICATES),
        object=st.sampled_from(_OBJECTS),
        graph=st.sampled_from(_GRAPHS),
    ),
    min_size=0,
    max_size=25,
    unique_by=lambda q: (q.subject, q.predicate, q.object, q.graph),
)

_VARS = ["?u", "?v", "?w", "?x"]
_slot = st.one_of(
    st.sampled_from(_VARS),
    st.sampled_from(_SUBJECTS),
)
_pred_slot = st.one_of(st.sampled_from(_VARS), st.sampled_from(_PREDICATES))
_obj_slot = st.one_of(st.sampled_from(_VARS), st.sampled_from(_OBJECTS))

_patterns = st.lists(
    st.tuples(_slot, _pred_slot, _obj_slot), min_size=1, max_size=3
)


def _pattern_text(pattern) -> str:
    return " ".join(
        part if isinstance(part, str) else part.n3() for part in pattern
    )


def _query_text(patterns, variables) -> str:
    body = " . ".join(_pattern_text(p) for p in patterns)
    projection = " ".join(variables)
    return f"SELECT {projection} WHERE {{ {body} }}"


def _pattern_variables(patterns) -> List[str]:
    found = []
    for pattern in patterns:
        for part in pattern:
            if isinstance(part, str) and part[1:] not in found:
                found.append(part[1:])
    return found


# ----------------------------------------------------------------------
# The differential tests
# ----------------------------------------------------------------------


class TestEngineMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(quads=_quads, patterns=_patterns)
    def test_bgp_solutions_identical(self, quads, patterns):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        engine = SparqlEngine(network, default_model="m")
        variables = _pattern_variables(patterns)
        if not variables:
            return  # all-constant patterns: covered by ASK below
        query = _query_text(patterns, ["?" + v for v in variables])
        engine_result = engine.select(query)
        engine_rows = sorted(
            tuple(repr(term) for term in row) for row in engine_result.rows
        )
        expected = normalize(reference_bgp(quads, patterns), variables)
        assert engine_rows == expected

    @settings(max_examples=60, deadline=None)
    @given(quads=_quads, patterns=_patterns)
    def test_ask_matches_reference(self, quads, patterns):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        engine = SparqlEngine(network, default_model="m")
        body = " . ".join(_pattern_text(p) for p in patterns)
        expected = bool(reference_bgp(quads, patterns))
        assert engine.ask(f"ASK {{ {body} }}") == expected

    @settings(max_examples=60, deadline=None)
    @given(
        quads=_quads,
        patterns=_patterns,
        filter_obj=st.sampled_from(_SUBJECTS),
    )
    def test_filter_equality_matches_reference(
        self, quads, patterns, filter_obj
    ):
        """FILTER (?u = <const>) must agree with post-hoc filtering —
        this exercises the sargable-rewrite path against the oracle."""
        variables = _pattern_variables(patterns)
        if "u" not in variables:
            return
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        engine = SparqlEngine(network, default_model="m")
        body = " . ".join(_pattern_text(p) for p in patterns)
        query = (
            f"SELECT ?u WHERE {{ {body} "
            f"FILTER (?u = {filter_obj.n3()}) }}"
        )
        engine_rows = sorted(
            repr(row[0]) for row in engine.select(query).rows
        )
        expected = sorted(
            repr(solution["u"])
            for solution in reference_bgp(quads, patterns)
            if solution.get("u") == filter_obj
        )
        assert engine_rows == expected

    @settings(max_examples=40, deadline=None)
    @given(quads=_quads)
    def test_count_matches_quad_count(self, quads):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        engine = SparqlEngine(network, default_model="m")
        result = engine.select(
            "SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o }"
        )
        assert result.scalar().to_python() == len(quads)

# ----------------------------------------------------------------------
# Pipeline vs the reference evaluator
# ----------------------------------------------------------------------
#
# The engine now executes through the layered pipeline (algebra ->
# optimizer -> physical operators); the interpreting Evaluator is kept
# as the executable semantic specification.  These tests require the
# two to return multiset-identical results — on the paper's full
# Table 10 suite (EQ1-EQ12) and on Hypothesis-generated queries.

import pytest

from repro.core import MODEL_NG, MODEL_SP, PropertyGraphRdfStore
from repro.datasets.twitter import (
    TwitterConfig,
    connected_tag,
    generate_twitter,
    hub_vertex,
)
from repro.testing.reference import Evaluator
from repro.sparql.results import SelectResult


def run_legacy(engine, ast, model=None):
    """Run an AST through the pre-refactor interpreting evaluator."""
    model_name = engine._model_name(model)
    evaluator = Evaluator(
        engine.network,
        engine.network.model(model_name),
        union_default_graph=engine._union_default,
        filter_pushdown=engine._filter_pushdown,
    )
    from repro.sparql.ast import (
        AskQuery,
        ConstructQuery,
        DescribeQuery,
        SelectQuery,
    )

    if isinstance(ast, SelectQuery):
        return evaluator.select(ast)
    if isinstance(ast, AskQuery):
        return evaluator.ask(ast)
    if isinstance(ast, ConstructQuery):
        return evaluator.construct(ast)
    if isinstance(ast, DescribeQuery):
        return evaluator.describe(ast)
    raise AssertionError(f"unsupported form {type(ast).__name__}")


def as_multiset(result):
    if isinstance(result, SelectResult):
        return sorted(tuple(repr(t) for t in row) for row in result.rows)
    if isinstance(result, list):  # CONSTRUCT / DESCRIBE triples
        return sorted(repr(t) for t in result)
    return result


def assert_same(engine, text, model=None):
    ast = engine._parse_query(text)
    pipeline = engine.run_ast(ast, model, text=text)
    legacy = run_legacy(engine, ast, model)
    if isinstance(pipeline, SelectResult):
        assert pipeline.variables == legacy.variables
    assert as_multiset(pipeline) == as_multiset(legacy)


@pytest.fixture(scope="module")
def twitter_stores():
    graph = generate_twitter(TwitterConfig(egos=5, seed=13))
    stores = {}
    for model in (MODEL_NG, MODEL_SP):
        store = PropertyGraphRdfStore(model=model)
        store.load(graph)
        stores[model] = store
    tag = connected_tag(graph)
    hub_iri = stores[MODEL_NG].vocabulary.vertex_iri(hub_vertex(graph)).value
    return stores, tag, hub_iri


class TestPipelineMatchesEvaluatorOnEQSuite:
    @pytest.mark.parametrize("model", [MODEL_NG, MODEL_SP])
    def test_every_experiment_query_is_multiset_identical(
        self, twitter_stores, model
    ):
        stores, tag, hub_iri = twitter_stores
        store = stores[model]
        suite = store.queries.experiment_queries(tag, hub_iri)
        for name, query in suite.items():
            ast = store.engine._parse_query(query)
            pipeline = store.engine.run_ast(ast, None, text=query)
            legacy = run_legacy(store.engine, ast)
            assert pipeline.variables == legacy.variables, name
            assert as_multiset(pipeline) == as_multiset(legacy), name


class TestPipelineMatchesEvaluatorOnForms:
    """Feature coverage beyond the EQ suite: every clause the parser
    accepts must behave identically through both execution paths."""

    QUERIES = [
        "SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . "
        "?x <http://ex/name> ?n } ORDER BY ?n LIMIT 2",
        "SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y }",
        "SELECT ?x WHERE { ?x <http://ex/knows> ?y "
        "OPTIONAL { ?y <http://ex/age> ?a } FILTER (!bound(?a) || ?a > 25) }",
        "SELECT ?x WHERE { { ?x <http://ex/knows> ?y } UNION "
        "{ ?x <http://ex/likes> ?y } }",
        "SELECT ?x WHERE { ?x <http://ex/knows> ?y "
        "MINUS { ?x <http://ex/age> ?a FILTER (?a > 25) } }",
        "SELECT ?x (COUNT(?y) AS ?c) WHERE { ?x <http://ex/knows> ?y } "
        "GROUP BY ?x HAVING (COUNT(?y) > 1)",
        "SELECT ?x ?z WHERE { ?x (<http://ex/knows>)+ ?z }",
        "SELECT ?x WHERE { GRAPH <http://ex/g1> { ?x <http://ex/likes> ?y } }",
        "SELECT ?e ?k ?v WHERE { GRAPH ?e { ?x <http://ex/likes> ?y . "
        "?e ?k ?v } }",
        "SELECT ?x ?total WHERE { ?x <http://ex/age> ?a "
        "BIND (?a * 2 AS ?total) }",
        "SELECT ?x WHERE { ?x <http://ex/age> ?a "
        "FILTER EXISTS { ?x <http://ex/knows> ?y } }",
        "SELECT ?x WHERE { VALUES ?x { <http://ex/alice> <http://ex/bob> } "
        "?x <http://ex/knows> ?y }",
        "SELECT (AVG(?a) AS ?avg) (MAX(?a) AS ?max) WHERE "
        "{ ?x <http://ex/age> ?a }",
        "SELECT ?x WHERE { { SELECT ?x (COUNT(*) AS ?deg) WHERE "
        "{ ?x <http://ex/knows> ?y } GROUP BY ?x } FILTER (?deg >= 2) }",
        "ASK { <http://ex/alice> <http://ex/knows> <http://ex/bob> }",
        "ASK { <http://ex/alice> <http://ex/knows> <http://ex/nobody> }",
        "CONSTRUCT { ?y <http://ex/knownBy> ?x } WHERE "
        "{ ?x <http://ex/knows> ?y }",
        "DESCRIBE <http://ex/alice>",
        "DESCRIBE ?x WHERE { ?x <http://ex/age> ?a FILTER (?a > 25) }",
        # Correlated EXISTS whose outer ?y is unbound by OPTIONAL for
        # bob and carol: there ?y must be free in the group (nobody
        # both knows someone and has a `since`), not a wildcard probe.
        "SELECT ?x ?y WHERE { ?x <http://ex/age> ?a "
        "OPTIONAL { ?x <http://ex/likes> ?y } "
        "FILTER EXISTS { ?y <http://ex/knows> ?z . "
        "?y <http://ex/since> ?s } }",
        "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y "
        "FILTER NOT EXISTS { ?y <http://ex/age> ?a FILTER (?a > 25) } }",
        "SELECT ?x WHERE { ?x <http://ex/knows> ?y FILTER EXISTS "
        "{ ?y <http://ex/knows> ?z FILTER NOT EXISTS "
        "{ ?z <http://ex/age> ?a FILTER (?a < 25) } } }",
        "SELECT ?x ?has WHERE { ?x <http://ex/age> ?a "
        "BIND (EXISTS { ?x <http://ex/likes> ?y } AS ?has) }",
        "SELECT ?x (NOT EXISTS { ?x <http://ex/knows> <http://ex/alice> } "
        "AS ?lone) WHERE { ?x <http://ex/name> ?n }",
        "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y "
        "FILTER EXISTS { ?y <http://ex/age> ?a } } ORDER BY ?x ?y LIMIT 2",
        "SELECT ?g ?x WHERE { GRAPH ?g { ?x <http://ex/likes> ?y "
        "FILTER (EXISTS { ?g <http://ex/since> ?s } "
        "&& NOT EXISTS { ?x <http://ex/knows> ?z }) } }",
        # Property paths inside the other clauses: lowered steps, hop
        # merges, union branches and closures against the walker.
        "SELECT ?x ?y WHERE { ?x <http://ex/age> ?a OPTIONAL "
        "{ ?x (<http://ex/knows>|<http://ex/likes>)/<http://ex/knows> ?y } }",
        "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y "
        "MINUS { ?y (<http://ex/knows>)+ ?x } }",
        "SELECT ?x WHERE { ?x <http://ex/age> ?a FILTER EXISTS "
        "{ ?x (^<http://ex/knows>/!(<http://ex/age>))* <http://ex/bob> } }",
        "SELECT ?x (COUNT(?y) AS ?c) WHERE "
        "{ ?x <http://ex/knows>/<http://ex/knows>/<http://ex/name> ?y } "
        "GROUP BY ?x",
        "SELECT ?x ?y WHERE { ?x <http://ex/knows>/<http://ex/knows> ?y } "
        "ORDER BY ?x ?y LIMIT 4",
        # SELECT * lists a path's endpoints in subject-object order,
        # whichever end the plan walked from.
        "SELECT * WHERE { ?x ^<http://ex/knows> ?y . "
        "?y ^(<http://ex/knows>/<http://ex/name>) ?z }",
        # A flush that runs empty before its path step still binds every
        # variable: through a constant absent from the store (no ex:r
        # here), and through constants that match nothing together.
        "SELECT * WHERE { ?y <http://ex/r> ?w . ?x (<http://ex/knows>)+ ?y }",
        "SELECT * WHERE { ?y <http://ex/age> <http://ex/bob> . "
        "?x (<http://ex/knows>)+ ?y }",
        "SELECT * WHERE { ?x <http://ex/knows> ?y "
        "FILTER (?a = <http://ex/nobody>) FILTER (?b = <http://ex/alice>) }",
        "SELECT * WHERE { ?x <http://ex/age> ?a "
        "GRAPH <http://ex/nograph> { ?x <http://ex/likes> ?y } }",
        # An absent constant empties only its own flush, and never reads
        # as "unbound": OPTIONAL keeps the left rows, the other UNION
        # branch answers, MINUS removes nothing, and a BIND-made IRI the
        # store lacks matches no pattern under NOT EXISTS.
        "SELECT * WHERE { ?x <http://ex/age> ?a OPTIONAL { ?x <http://ex/knows> "
        "?y . ?y <http://ex/likes> <http://ex/nobody> } }",
        "SELECT ?x ?y WHERE { { ?x <http://ex/knows> <http://ex/nobody> } "
        "UNION { ?x <http://ex/knows> ?y } }",
        "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y "
        "MINUS { ?x <http://ex/likes> <http://ex/nobody> } }",
        "SELECT ?x ?z WHERE { ?x <http://ex/name> ?n "
        'BIND (IRI(CONCAT("http://ex/made-", STR(?n))) AS ?z) '
        "FILTER NOT EXISTS { ?z <http://ex/knows> ?o } }",
        # The filter's constant is absent when the run starts; the BIND
        # before it interns an equal term.
        "SELECT ?v WHERE { BIND (<http://ex/bound-by-bind> AS ?v) "
        "FILTER (?v = <http://ex/bound-by-bind>) }",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_form_is_identical(self, social_engine, query):
        assert_same(social_engine, query)


class TestPipelineMatchesEvaluatorHypothesis:
    @settings(max_examples=80, deadline=None)
    @given(quads=_quads, patterns=_patterns)
    def test_random_bgps_identical(self, quads, patterns):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        engine = SparqlEngine(network, default_model="m")
        variables = _pattern_variables(patterns)
        if not variables:
            return
        query = _query_text(patterns, ["?" + v for v in variables])
        assert_same(engine, query)

    @settings(max_examples=50, deadline=None)
    @given(
        quads=_quads,
        patterns=_patterns,
        optional=_patterns,
        filter_obj=st.sampled_from(_SUBJECTS),
    )
    def test_random_optional_filter_identical(
        self, quads, patterns, optional, filter_obj
    ):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        engine = SparqlEngine(network, default_model="m")
        variables = _pattern_variables(patterns)
        if "u" not in variables:
            return
        body = " . ".join(_pattern_text(p) for p in patterns)
        opt = " . ".join(_pattern_text(p) for p in optional)
        query = (
            f"SELECT ?u WHERE {{ {body} OPTIONAL {{ {opt} }} "
            f"FILTER (?u = {filter_obj.n3()}) }}"
        )
        assert_same(engine, query)


# ----------------------------------------------------------------------
# Random property paths: pipeline vs walker vs reference evaluator
# ----------------------------------------------------------------------
#
# The pipeline lowers paths to pattern steps and runs repetition in its
# batched closure operator; the reference evaluator walks them with the
# row-at-a-time walker in repro.testing.paths.  The two share no path
# code, so each is checked against the walker called directly too.

from collections import Counter as _Counter

from repro.sparql.ast import PathLink
from repro.testing.paths import PathEvaluator

_LINKS = st.sampled_from([f"<{EX}{name}>" for name in ("p", "q", "r")])
_path_texts = st.recursive(
    _LINKS
    | st.lists(_LINKS, min_size=1, max_size=2, unique=True).map(
        lambda links: "!(%s)" % "|".join(links)
    ),
    lambda inner: st.one_of(
        inner.map(lambda text: f"^({text})"),
        st.tuples(inner, st.sampled_from("*+?")).map("({0[0]}){0[1]}".format),
        st.lists(inner, min_size=2, max_size=3).map(
            lambda texts: "(%s)" % "/".join(texts)
        ),
        st.lists(inner, min_size=2, max_size=3).map(
            lambda texts: "(%s)" % "|".join(texts)
        ),
    ),
    max_leaves=4,
)
#: An endpoint: a free variable, a constant, a variable bound by VALUES
#: before the path runs, or one a sargable FILTER seeds (a set).
_endpoints = st.one_of(
    st.just(()),
    st.sampled_from(_SUBJECTS),
    st.lists(st.sampled_from(_SUBJECTS), min_size=1, max_size=2, unique=True),
    st.sampled_from(_SUBJECTS).map(lambda term: {term}),
)


def _endpoint_text(var, end):
    """``(term text, VALUES before the path, FILTER after it)``."""
    if isinstance(end, IRI):
        return end.n3(), "", ""
    if isinstance(end, set):
        return f"?{var}", "", f"FILTER (?{var} = {next(iter(end)).n3()}) "
    if end:
        return f"?{var}", "VALUES ?%s { %s } " % (
            var, " ".join(term.n3() for term in end)
        ), ""
    return f"?{var}", "", ""


def _walked(network, path, subject, obj):
    """The walker's (start, end) multiset for ``subject path obj``,
    chosen like the reference evaluator: from a bound end, else all
    pairs."""
    walker = PathEvaluator(network.model("m"), network.lookup_term)

    def ids(end):
        terms = [end] if isinstance(end, IRI) else list(end)
        found = [network.lookup_term(term) for term in terms]
        return None if not terms else [i for i in found if i is not None]

    starts, ends = ids(subject), ids(obj)
    walked = _Counter()
    if starts is not None:
        for start in starts:
            for end, mult in walker.ends_from(path, {start: 1}, None).items():
                if ends is None or end in ends:
                    walked[start, end] += mult
    elif ends is not None:
        for end in ends:
            for start, mult in walker.starts_to(path, {end: 1}, None).items():
                walked[start, end] += mult
    else:
        for start, end, mult in walker.pairs(path, None):
            walked[start, end] += mult
    return walked


class TestRandomPathsMatchWalkerAndReference:
    @settings(max_examples=150, deadline=None)
    @given(
        quads=_quads,
        path=_path_texts,
        subject=_endpoints,
        obj=_endpoints,
    )
    def test_random_path_identical(self, quads, path, subject, obj):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        engine = SparqlEngine(network, default_model="m")
        s_text, s_values, s_filter = _endpoint_text("s", subject)
        o_text, o_values, o_filter = _endpoint_text("o", obj)
        where = (
            f"{{ {s_values}{o_values}{s_text} {path} {o_text} "
            f"{s_filter}{o_filter}}}"
        )
        query = f"SELECT (COUNT(*) AS ?n) WHERE {where}"
        if s_text.startswith("?") or o_text.startswith("?"):
            variables = [t for t in (s_text, o_text) if t.startswith("?")]
            query = f"SELECT {' '.join(variables)} WHERE {where}"
        assert_same(engine, query)
        result = engine.select(query)
        path = next(
            element.predicate
            for element in engine._parse_query(query).where.elements
            if hasattr(element, "predicate")
        )
        if isinstance(path, IRI):  # a bare link parses as a predicate
            path = PathLink(path)
        walked = _walked(network, path, subject, obj)
        if list(result.variables) == ["n"]:
            assert result.scalar().to_python() == sum(walked.values())
            return
        got = _Counter()
        for row in result:
            start = row.get("s", subject if isinstance(subject, IRI) else None)
            end = row.get("o", obj if isinstance(obj, IRI) else None)
            got[network.lookup_term(start), network.lookup_term(end)] += 1
        assert got == walked


class TestPathsWalkFromTheBoundEnd:
    """A lowered path walks from its bound end, as the reference walker
    does.  The bound end may sit in the last step behind an inverse, or
    be bound by a sargable FILTER.  With both ends free, a zero-length
    closure step starts at every node of the active graph, not only at
    the nodes of its own links."""

    @pytest.mark.parametrize("query", [
        "SELECT ?s WHERE { ?s (<http://ex/q>)*/^<http://ex/p> <http://ex/a> }",
        "SELECT ?s ?o WHERE { ?s (<http://ex/q>)*/<http://ex/p> ?o "
        "FILTER (?o = <http://ex/a>) }",
        "SELECT ?s ?o WHERE { ?s (<http://ex/q>)*/<http://ex/p> ?o }",
        "SELECT ?s WHERE { VALUES ?o { <http://ex/a> } "
        "?s ^((<http://ex/p>)*/(<http://ex/p>)*) ?o }",
    ])
    def test_matches_the_reference(self, query):
        network = SemanticNetwork()
        network.create_model("m")
        a, p = IRI("http://ex/a"), IRI("http://ex/p")
        network.bulk_load("m", [Quad(a, p, a)])
        engine = SparqlEngine(network, default_model="m")
        assert engine.select(query).rows
        assert_same(engine, query)


# ----------------------------------------------------------------------
# Batch-boundary differentials
# ----------------------------------------------------------------------
#
# Vectorized engines break at batch boundaries, so the whole harness
# above re-runs with the batch size forced to 1 (degenerate batches:
# every operator handoff is a boundary), 2 (windows straddle every
# probe), and 1024 (the default full page).

import contextlib
from collections import Counter

BATCH_SIZES = (1, 2, 1024)


@contextlib.contextmanager
def forced_batch_size(engine, batch_size):
    previous = engine.batch_size
    engine.batch_size = batch_size
    try:
        yield
    finally:
        engine.batch_size = previous


class TestBatchSizeBoundaries:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("model", [MODEL_NG, MODEL_SP])
    def test_eq_suite_identical_at_batch_size(
        self, twitter_stores, model, batch_size
    ):
        stores, tag, hub_iri = twitter_stores
        store = stores[model]
        suite = store.queries.experiment_queries(tag, hub_iri)
        with forced_batch_size(store.engine, batch_size):
            for name, query in suite.items():
                ast = store.engine._parse_query(query)
                pipeline = store.engine.run_ast(ast, None, text=query)
                legacy = run_legacy(store.engine, ast)
                assert as_multiset(pipeline) == as_multiset(legacy), (
                    f"{name} at batch_size={batch_size}"
                )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_feature_queries_identical_at_batch_size(
        self, social_engine, batch_size
    ):
        with forced_batch_size(social_engine, batch_size):
            for query in TestPipelineMatchesEvaluatorOnForms.QUERIES:
                assert_same(social_engine, query)

    @settings(max_examples=40, deadline=None)
    @given(
        quads=_quads,
        patterns=_patterns,
        filter_obj=st.none() | st.sampled_from(_SUBJECTS),
        limit=st.none() | st.integers(min_value=0, max_value=4),
    )
    def test_random_bgp_filter_limit_at_every_batch_size(
        self, quads, patterns, filter_obj, limit
    ):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        engine = SparqlEngine(network, default_model="m")
        variables = _pattern_variables(patterns)
        if not variables:
            return
        if filter_obj is not None and "u" not in variables:
            filter_obj = None
        body = " . ".join(_pattern_text(p) for p in patterns)
        if filter_obj is not None:
            body += f" FILTER (?u = {filter_obj.n3()})"
        projection = " ".join("?" + v for v in variables)
        base = f"SELECT {projection} WHERE {{ {body} }}"
        ast = engine._parse_query(base)
        oracle = as_multiset(run_legacy(engine, ast))
        for batch_size in BATCH_SIZES:
            with forced_batch_size(engine, batch_size):
                full = as_multiset(engine.select(base))
                assert full == oracle, f"batch_size={batch_size}"
                if limit is None:
                    continue
                # LIMIT without ORDER BY may keep any rows, so the
                # differential property is: the right count, and a
                # sub-multiset of the unlimited result.
                limited = as_multiset(
                    engine.select(f"{base} LIMIT {limit}")
                )
                assert len(limited) == min(limit, len(oracle)), (
                    f"batch_size={batch_size}"
                )
                assert not Counter(limited) - Counter(oracle), (
                    f"batch_size={batch_size}"
                )


# ----------------------------------------------------------------------
# Cyclic BGPs: the trie join vs the reference evaluator
# ----------------------------------------------------------------------

_NODES = [IRI(f"{EX}n{i}") for i in range(4)]
_P, _Q, _K = IRI(EX + "p"), IRI(EX + "q"), IRI(EX + "k")

#: Random multigraphs: self-loops; parallel edges as the same triple in
#: several graphs (multiplicities under the union default graph) and as
#: a second predicate; key-value pairs on the nodes and, as in the SP
#: encoding, on the edge predicates.
_multigraphs = st.lists(
    st.one_of(
        st.builds(
            Quad,
            subject=st.sampled_from(_NODES),
            predicate=st.sampled_from([_P, _P, _Q]),
            object=st.sampled_from(_NODES),
            graph=st.sampled_from(_GRAPHS),
        ),
        st.builds(
            Quad,
            subject=st.sampled_from(_NODES + [_P, _Q]),
            predicate=st.just(_K),
            object=st.sampled_from([Literal("x"), Literal("y")]),
            graph=st.sampled_from(_GRAPHS),
        ),
    ),
    min_size=8,
    max_size=30,
    unique_by=lambda q: (q.subject, q.predicate, q.object, q.graph),
)

CYCLIC_QUERIES = {
    "triangle": "SELECT * WHERE { ?x ex:p ?y . ?y ex:p ?z . ?z ex:p ?x }",
    "4-cycle": (
        "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:q ?d . "
        "?d ex:p ?a }"
    ),
    "graph-triangle": (
        "SELECT * WHERE { GRAPH ?g { ?x ex:p ?y . ?y ex:p ?z . "
        "?z ex:p ?x } }"
    ),
    "triangle-kv": (
        "SELECT * WHERE { ?x ex:p ?y . ?y ex:p ?z . ?z ex:p ?x . "
        "?y ex:k ?v FILTER (?x != ?z) }"
    ),
    "triangle-edge-kv": (
        "SELECT * WHERE { ?x ?e ?y . ?e ex:k ?v . ?y ex:p ?z . "
        "?z ex:p ?x }"
    ),
    "shared-predicate": (
        "SELECT * WHERE { ?x ?r ?y . ?y ?r ?z . ?z ex:p ?x }"
    ),
    "count": (
        "SELECT (COUNT(*) AS ?n) WHERE { ?x ex:p ?y . ?y ex:p ?z . "
        "?z ex:p ?x }"
    ),
}


class TestCyclicBGPsMatchTheReference:
    """A BGP whose join graph has a cycle runs as one trie join; on
    random multigraphs it returns the reference evaluator's multiset,
    at the degenerate batch size and the default one."""

    @staticmethod
    def _engine(quads):
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        return SparqlEngine(network, prefixes={"ex": EX}, default_model="m")

    @pytest.mark.parametrize("name", sorted(CYCLIC_QUERIES))
    def test_query_compiles_to_a_trie_join(self, name):
        from repro.sparql.executor import compile_query
        from repro.sparql.physical import render_physical

        engine = self._engine([Quad(_NODES[0], _P, _NODES[1])])
        ast = engine._parse_query(CYCLIC_QUERIES[name])
        compiled = compile_query(
            ast, engine.network, engine.network.model("m"), "m"
        )
        assert "TrieJoin(" in render_physical(compiled.root)

    @pytest.mark.parametrize("name", sorted(CYCLIC_QUERIES))
    @settings(max_examples=20, deadline=None)
    @given(quads=_multigraphs)
    def test_pipeline_equals_reference(self, name, quads):
        engine = self._engine(quads)
        query = CYCLIC_QUERIES[name]
        for batch_size in (1, 1024):
            with forced_batch_size(engine, batch_size):
                assert_same(engine, query)


# ----------------------------------------------------------------------
# Sargable seeds across GRAPH ?g vs the reference evaluator
# ----------------------------------------------------------------------

#: Groups with a ``GRAPH ?g`` subgroup, first or after a pattern; each
#: gets ``FILTER (?<v> = <c>)`` at the group's end.  ``?t`` is bound
#: only by a later outer pattern, an outer OPTIONAL or an inner one;
#: ``?z`` by nothing.
GRAPH_SEED_GROUPS = {
    "first": "GRAPH ?g { ?s ex:p ?o . ?o ex:k ?w }",
    # NG's edge key-values: the graph variable as a subject inside.
    "first-edge-kv": "GRAPH ?g { ?s ex:p ?o . ?g ex:k ?w }",
    "first-later-pattern": "GRAPH ?g { ?s ex:p ?o } ?o ex:q ?t",
    "first-outer-optional": (
        "GRAPH ?g { ?s ex:p ?o } OPTIONAL { ?o ex:q ?t }"
    ),
    "first-inner-optional": "GRAPH ?g { ?s ex:p ?o OPTIONAL { ?o ex:q ?t } }",
    "later": "?a ex:q ?s . GRAPH ?g { ?s ex:p ?o }",
    "later-inner-optional": (
        "?a ex:q ?s . GRAPH ?g { ?s ex:p ?o OPTIONAL { ?o ex:p ?t } }"
    ),
}

#: Present in the data (nodes, a named graph) and absent from it.
_SEED_CONSTANTS = [_NODES[0], _NODES[1], _GRAPHS[1], IRI(EX + "absent")]


class TestSeedsCrossGraphVarMatchTheReference:
    """``FILTER (?v = c)`` outside ``GRAPH ?g { ... }`` seeds the
    subgroup's first flush when that flush binds ``?v`` and the
    projection is explicit; wherever it applies, the pipeline returns
    the reference evaluator's multiset (and, for ``SELECT *``, its
    column order), at the degenerate batch size and the default one."""

    @pytest.mark.parametrize("shape", sorted(GRAPH_SEED_GROUPS))
    @settings(max_examples=20, deadline=None)
    @given(
        quads=_multigraphs,
        variable=st.sampled_from(["s", "o", "g", "t", "z"]),
        constant=st.sampled_from(_SEED_CONSTANTS),
        projection=st.sampled_from(["*", "?s ?o ?g ?t ?z ?w ?a"]),
        edge_kvs=st.sets(st.sampled_from(_GRAPHS[1:])),
    )
    def test_pipeline_equals_reference(
        self, shape, quads, variable, constant, projection, edge_kvs
    ):
        # A named graph's own key-value, as NG clusters an edge's.
        kvs = [Quad(g, _K, Literal("x"), g) for g in edge_kvs]
        engine = TestCyclicBGPsMatchTheReference._engine(quads + kvs)
        query = (
            f"SELECT {projection} WHERE {{ {GRAPH_SEED_GROUPS[shape]} "
            f"FILTER (?{variable} = {constant.n3()}) }}"
        )
        for batch_size in (1, 1024):
            with forced_batch_size(engine, batch_size):
                assert_same(engine, query)


def test_edge_kv_texts_share_one_cached_plan(twitter_stores):
    """Two NG edge-KV texts that differ in the hub id hit one plan-cache
    entry (the seed is a lifted constant), and both match the oracle."""
    stores, _, _ = twitter_stores
    store = stores[MODEL_NG]
    engine = store.engine
    follows = store.select(
        "SELECT ?n (COUNT(*) AS ?c) WHERE { ?n r:follows ?m } "
        "GROUP BY ?n ORDER BY DESC(?c) LIMIT 2"
    )
    hubs = [
        int(row[0].value.rsplit("/v", 1)[1]) for row in follows.rows
    ]
    engine.plan_cache.clear()
    before = engine.plan_cache.stats()
    for hub in hubs:
        text = (
            f"MATCH (n)-[e:follows]->(m) WHERE id(n)={hub} "
            "RETURN m, properties(e)"
        )
        result = engine.pgql(text)
        reference = run_legacy(engine, engine._front_end(text, "pgql")[0])
        assert result.rows
        assert as_multiset(result) == as_multiset(reference)
    after = engine.plan_cache.stats()
    assert after["size"] == 1
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 1


# ----------------------------------------------------------------------
# UPDATE WHERE: the compiled pipeline vs the oracle's WHERE relation
# ----------------------------------------------------------------------

_UPDATE_QUADS = [
    Quad(IRI(EX + "a"), IRI(EX + "old"), IRI(EX + "b")),
    Quad(IRI(EX + "b"), IRI(EX + "old"), IRI(EX + "c")),
    Quad(IRI(EX + "a"), IRI(EX + "name"), Literal("A")),
]

#: Every DELETE/INSERT WHERE text of tests/test_sparql_update.py, plus
#: the benchmark's set-node-property write (whose OPTIONAL leaves ?old
#: unbound the first time and bound the second).
UPDATES = [
    "DELETE { ?x ex:old ?y } INSERT { ?x ex:new ?y } WHERE { ?x ex:old ?y }",
    "DELETE WHERE { ?x ex:old ?y }",
    'INSERT { ?x ex:label "node" } WHERE { ?x ex:old ?y }',
    "DELETE { ?x ex:old ?y } WHERE { ?x ex:old ?y FILTER (?x = ex:a) }",
    "DELETE { ?x ex:old ?y } WHERE { ?x ex:old ?y . ?x ex:nope ?z }",
    "DELETE { GRAPH ?e { ?e <http://pg/k/since> ?y } } "
    "INSERT { GRAPH ?e { ?e <http://pg/k/sinceYear> ?y } } "
    "WHERE { GRAPH ?e { ?e <http://pg/k/since> ?y } }",
    'DELETE { ex:a ex:status ?old } INSERT { ex:a ex:status "v1" } '
    "WHERE { OPTIONAL { ex:a ex:status ?old } } ; "
    'DELETE { ex:a ex:status ?old } INSERT { ex:a ex:status "v2" } '
    "WHERE { OPTIONAL { ex:a ex:status ?old } }",
]


def _update_engine():
    """The test_sparql_update.py data plus one NG edge with a KV."""
    from repro import PropertyGraph

    graph = PropertyGraph()
    graph.add_vertex(1)
    graph.add_vertex(2)
    graph.add_edge(1, "follows", 2, {"since": 2007}, edge_id=3)
    store = PropertyGraphRdfStore(model=MODEL_NG)
    store.load(graph)
    network = SemanticNetwork()
    network.create_model("m")
    network.bulk_load("m", list(store.quads()) + _UPDATE_QUADS)
    return SparqlEngine(network, prefixes={"ex": EX}, default_model="m")


def _oracle_update(engine, text):
    """The quad set ``text`` should leave: each operation's templates
    instantiated over the oracle's WHERE relation, deletes first."""
    from repro.sparql.executor import instantiate

    network = engine.network
    name = engine._model_name(None)
    quads = set(network.quads(name))
    for operation in engine._parser.parse_update(text).operations:
        evaluator = Evaluator(
            network,
            network.model(name),
            union_default_graph=engine._union_default,
        )
        relation = evaluator.evaluate_group(
            operation.where, None if engine._union_default else 0
        )
        index = {v: i for i, v in enumerate(relation.variables)}
        for templates, apply in (
            (operation.delete_templates, quads.discard),
            (operation.insert_templates, quads.add),
        ):
            for row in relation.rows:
                for template in templates:
                    quad = instantiate(
                        template, row, index, network.values.term
                    )
                    if quad is not None:
                        apply(quad)
        # Later operations see this one's effects.
        network.clear_model(name, None)
        network.bulk_load(name, quads)
    return quads


@pytest.mark.parametrize("text", UPDATES)
def test_update_matches_oracle_where(text):
    expected = _oracle_update(_update_engine(), text)
    engine = _update_engine()
    engine.update(text)
    assert set(engine.network.quads(engine._model_name(None))) == expected


def test_production_modules_do_not_import_the_oracle():
    import subprocess
    import sys

    code = (
        "import sys, repro.cli, repro.server, repro.core, repro.sparql; "
        "print(any(m in sys.modules for m in "
        "('repro.testing.reference', 'repro.testing.paths')))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert completed.stdout.strip() == "False"
