"""Tests for the physical operator layer and the plan cache.

Covers the pull-based iterator behaviour the refactor exists for —
streaming early termination under LIMIT — plus plan compilation,
rendering, and the engine's LRU plan cache with data-version
invalidation.
"""

import pytest

from repro.obs import metrics
from repro.rdf import IRI, Literal, Quad
from repro.sparql import SparqlEngine
from repro.sparql.executor import compile_query
from repro.sparql.parser import Parser
from repro.obs.query import QueryCollector
from repro.sparql.physical import (
    ExecContext,
    PatternJoinOp,
    PhysicalOp,
    SliceOp,
    compile_plan,
    physical_to_dict,
    render_physical,
)
from repro.sparql.plancache import PlanCache
from repro.store import SemanticNetwork, ValuesTable

EX = "http://ex/"
_parser = Parser({"ex": EX})


def ex(name: str) -> IRI:
    return IRI(EX + name)


def chain_engine(n: int = 50):
    """A long follows-chain: v0 -> v1 -> ... -> vn, each with a name."""
    network = SemanticNetwork()
    network.create_model("m")
    quads = []
    for i in range(n):
        quads.append(Quad(ex(f"v{i}"), ex("follows"), ex(f"v{i+1}")))
        quads.append(Quad(ex(f"v{i}"), ex("name"), Literal(f"name{i}")))
    network.bulk_load("m", quads)
    return SparqlEngine(network, prefixes={"ex": EX}, default_model="m")


def compiled_for(engine, text, model="m"):
    ast = engine._parse_query(text)
    return compile_query(
        ast, engine.network, engine.network.model(model), model
    )


# ----------------------------------------------------------------------
# Physical plan shape
# ----------------------------------------------------------------------


class TestCompilation:
    def test_first_scan_then_nested_loop_joins(self):
        engine = chain_engine(5)
        compiled = compiled_for(
            engine,
            "SELECT ?a ?n WHERE { ?a ex:follows ?b . ?a ex:name ?n }",
        )
        ops = [op for op in _walk(compiled.root) if isinstance(op, PatternJoinOp)]
        # Innermost pattern scans; the second joins against it.
        assert [op.name for op in reversed(ops)] == [
            "IndexScan",
            "IndexNestedLoopJoin",
        ]

    def test_limit_compiles_to_streaming_slice(self):
        engine = chain_engine(5)
        compiled = compiled_for(
            engine, "SELECT ?a WHERE { ?a ex:follows ?b } LIMIT 2"
        )
        slices = [op for op in _walk(compiled.root) if isinstance(op, SliceOp)]
        assert len(slices) == 1
        assert slices[0].name == "StreamingSlice"

    def test_missing_constant_compiles_to_empty(self):
        engine = chain_engine(3)
        compiled = compiled_for(
            engine, "SELECT ?x WHERE { ?x ex:follows ex:nowhere }"
        )
        ctx = ExecContext(
            engine.network, engine.network.model("m"),
            constants=compiled.root.constants,
        )
        assert list(compiled.root.run(ctx)) == []

    def test_render_and_dict_agree(self):
        engine = chain_engine(3)
        compiled = compiled_for(
            engine,
            "SELECT ?a WHERE { ?a ex:follows ?b FILTER (?a != ?b) } LIMIT 1",
        )
        text = render_physical(compiled.root)
        document = physical_to_dict(compiled.root)

        def labels(node):
            yield node["label"]
            for child in node.get("children", ()):
                yield from labels(child)

        for label in labels(document):
            assert label in text


def _walk(op):
    yield op
    for child in op.children():
        yield from _walk(child)


# ----------------------------------------------------------------------
# The one execution contract
# ----------------------------------------------------------------------


def _concrete_ops(base=PhysicalOp):
    for sub in base.__subclasses__():
        yield sub
        yield from _concrete_ops(sub)


#: Together these plans contain every operator kind: BGP scans and
#: joins, a closure with both endpoints free and one from a bound end,
#: a fixed-length path whose hops are merged away,
#: FILTER, a sargable seed, OPTIONAL, MINUS, UNION, VALUES, BIND,
#: GROUP BY, DISTINCT, ORDER BY, LIMIT and an absent constant, and a
#: cyclic BGP (a trie join with payload columns and a filter inside).
#: LIMIT only follows a total ORDER BY, so every policy must agree
#: exactly.
CONTRACT_QUERIES = [
    "SELECT ?a ?label (COUNT(?c) AS ?k) WHERE { "
    "VALUES ?a { ex:v0 ex:v1 ex:v2 ex:v3 ex:v4 ex:v9 } "
    "?a ex:follows ?b . ?a ex:name ?n . "
    "{ ?b ex:follows ?c } UNION { ?b ex:name ?c } "
    "UNION { ?b ex:follows ex:nowhere } "
    "OPTIONAL { ?b ex:name ?bn } "
    'MINUS { ?a ex:name "name3" } '
    "BIND (STR(?n) AS ?label) FILTER (?a != ?c) } "
    "GROUP BY ?a ?label ORDER BY ?label LIMIT 4",
    "SELECT DISTINCT ?p ?q ?far WHERE { ?p ex:follows+ ?q . "
    "?q ex:follows* ?far . ?far ex:name ?fn FILTER (?p = ex:v1) } "
    "ORDER BY ?q ?far LIMIT 7",
    "SELECT ?x ?z ?p ?q WHERE { ?x ex:name ?nx . ?y ex:follows ?z . "
    "?p ex:follows+ ?q }",
    "SELECT ?a ?c WHERE { ?a ex:follows/ex:follows/ex:follows ?c } "
    "ORDER BY ?a ?c",
    "SELECT * WHERE { ?a ex:follows ?b . ?a ?p ?x . ?b ?p ?y "
    "FILTER (?a != ?b) }",
]


class TestOneExecutionContract:
    def test_every_operator_defines_run_batches_and_none_overrides_run(self):
        ops = set(_concrete_ops())
        assert len(ops) >= 16
        for op in ops:
            assert op.run_batches is not PhysicalOp.run_batches, op.__name__
            assert op.run is PhysicalOp.run, op.__name__

    def test_contract_plans_cover_every_operator(self):
        engine = chain_engine(8)
        used = set()
        for text in CONTRACT_QUERIES:
            used |= {type(op) for op in _walk(compiled_for(engine, text).root)}
        assert used == set(_concrete_ops())

    @pytest.mark.parametrize("batch_size", [1, 2, 1024])
    @pytest.mark.parametrize("policy", ["adaptive", "drain", "instrumented"])
    def test_run_is_the_flattened_batches_under_every_policy(
        self, policy, batch_size
    ):
        engine = chain_engine(8)
        model = engine.network.model("m")

        for text in CONTRACT_QUERIES:
            root = compiled_for(engine, text).root

            def context(policy=policy, batch_size=batch_size):
                return ExecContext(
                    engine.network,
                    model,
                    collector=(
                        QueryCollector() if policy == "instrumented" else None
                    ),
                    streaming=policy == "adaptive",
                    batch_size=batch_size,
                    constants=root.constants,
                )

            batches = list(root.run_batches(context()))
            flattened = []
            for rows, mults in batches:
                assert rows, "operators never emit an empty batch"
                assert mults is None or len(mults) == len(rows)
                flattened.extend(zip(rows, mults or [1] * len(rows)))
            assert list(root.run(context())) == flattened, text
            reference = list(root.run(context("drain", 1024)))
            assert sorted(flattened, key=repr) == sorted(reference, key=repr)
            assert reference, text


# ----------------------------------------------------------------------
# Streaming early termination
# ----------------------------------------------------------------------


class TestEarlyTermination:
    def test_limit_scans_fewer_index_entries(self):
        """The tentpole's headline behaviour: LIMIT queries terminate
        early instead of materializing every intermediate relation."""
        engine = chain_engine(200)
        query_all = (
            "SELECT ?a ?c WHERE { ?a ex:follows ?b . ?b ex:follows ?c }"
        )
        query_limited = query_all + " LIMIT 3"

        def scanned(text):
            with metrics.enabled(fresh=True) as registry:
                engine.select(text)
                return registry.counter("index.rows_scanned")

        full = scanned(query_all)
        limited = scanned(query_limited)
        assert limited < full / 2  # at least 2x fewer entries touched

    def test_limited_results_are_a_prefix_sized_subset(self):
        engine = chain_engine(30)
        all_rows = set(
            engine.select(
                "SELECT ?a WHERE { ?a ex:follows ?b }"
            ).rows
        )
        limited = engine.select(
            "SELECT ?a WHERE { ?a ex:follows ?b } LIMIT 4"
        )
        assert len(limited.rows) == 4
        assert set(limited.rows) <= all_rows

    def test_ask_streams_first_row_only(self):
        engine = chain_engine(200)
        with metrics.enabled(fresh=True) as registry:
            assert engine.ask("ASK { ?a ex:follows ?b }")
            assert registry.counter("index.rows_scanned") <= 2

    @staticmethod
    def _windows(monkeypatch):
        """The sizes of the index windows every scan decodes."""
        from repro.store.index import SemanticIndex

        windows = []
        decode = SemanticIndex._window_batches

        def counted(self, *args):
            for window in decode(self, *args):
                windows.append(len(window))
                yield window

        monkeypatch.setattr(SemanticIndex, "_window_batches", counted)
        return windows

    def test_limit_scan_windows_grow_with_the_ramp(self, monkeypatch):
        """A streaming scan's windows follow the output batches (1, 2,
        4, ... up to the batch size), so a LIMIT over a long range
        decodes it in a few windows, not one row per window."""
        from repro.store.pages import default_page_size

        engine = chain_engine(3000)
        engine.batch_size = 1024
        windows = self._windows(monkeypatch)
        limited = engine.select(
            "SELECT ?a ?b WHERE { ?a ex:follows ?b } LIMIT 2500"
        )
        assert len(limited.rows) == 2500
        # Each window ends at a batch end or a page end: 10 ramp batches
        # (1 ... 512), two of 1024, and the pages the range spans.
        pages = 2500 // default_page_size() + 2
        assert sum(windows) >= 2500
        assert len(windows) <= 12 + pages, windows

    def test_ask_decodes_one_window_of_one_row(self, monkeypatch):
        engine = chain_engine(200)
        engine.batch_size = 1024
        windows = self._windows(monkeypatch)
        assert engine.ask("ASK { ?a ex:follows ?b }")
        assert windows == [1]

    def test_instrumented_mode_matches_streaming_results(self):
        engine = chain_engine(20)
        text = (
            "SELECT ?a ?n WHERE { ?a ex:follows ?b . ?a ex:name ?n } "
            "ORDER BY ?n LIMIT 5"
        )
        plain = engine.select(text)
        analysis = engine.explain(text, analyze=True)
        assert analysis.result.rows == plain.rows


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------


class TestPlanCache:
    def test_second_run_hits(self):
        engine = chain_engine(5)
        text = "SELECT ?a WHERE { ?a ex:follows ?b }"
        engine.select(text)
        engine.select(text)
        stats = engine.plan_cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_store_mutation_keeps_the_plan(self):
        """DML does not invalidate: the cached plan reads the new data."""
        engine = chain_engine(5)
        text = "SELECT ?a WHERE { ?a ex:follows ?b }"
        before = len(engine.select(text).rows)
        engine.network.insert(
            "m", Quad(ex("new"), ex("follows"), ex("v0"))
        )
        after = engine.select(text)
        assert len(after.rows) == before + 1
        stats = engine.plan_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_direct_network_write_is_seen(self):
        """Constants absent when the plan was cached resolve per run,
        so even writes bypassing the engine are seen by the cached
        plan."""
        engine = chain_engine(3)
        text = "SELECT ?x WHERE { ?x ex:kind ex:added }"
        assert engine.select(text).rows == []
        engine.network.insert("m", Quad(ex("n"), ex("kind"), ex("added")))
        assert len(engine.select(text).rows) == 1
        assert engine.plan_cache.stats()["hits"] == 1

    def test_eviction_counts(self):
        cache = PlanCache(capacity=2)
        assert cache.put("a", 1, "plan-a") == 0
        assert cache.put("b", 1, "plan-b") == 0
        assert cache.put("c", 1, "plan-c") == 1
        assert cache.get("a", 1) is None  # LRU victim
        assert cache.get("c", 1) == "plan-c"
        assert cache.stats()["evictions"] == 1

    def test_stale_version_is_a_miss_and_dropped(self):
        cache = PlanCache()
        cache.put("k", 1, "old")
        assert cache.get("k", 2) is None
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1

    def test_counters_reach_result_stats(self):
        engine = chain_engine(5)
        engine.collect_stats = True
        text = "SELECT ?a WHERE { ?a ex:follows ?b }"
        first = engine.select(text)
        assert first.stats.counter("plan_cache.misses") == 1
        second = engine.select(text)
        assert second.stats.counter("plan_cache.hits") == 1
        assert second.stats.plan_cache()["hits"] == 1

    def test_counters_reach_registry(self):
        engine = chain_engine(5)
        text = "SELECT ?a WHERE { ?a ex:follows ?b }"
        with metrics.enabled(fresh=True) as registry:
            engine.select(text)
            engine.select(text)
            assert registry.counter("plan_cache.misses") == 1
            assert registry.counter("plan_cache.hits") == 1

    def test_second_prepared_run_hits(self):
        engine = chain_engine(5)
        prepared = engine.prepare("SELECT ?a WHERE { ?a ex:follows ?b }")
        first = prepared.run()
        assert prepared.run().rows == first.rows
        stats = engine.plan_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_same_text_different_model_is_distinct(self):
        engine = chain_engine(5)
        engine.network.create_model("other")
        text = "SELECT ?a WHERE { ?a ex:follows ?b }"
        assert len(engine.select(text).rows) == 5
        assert engine.select(text, model="other").rows == []
        assert engine.plan_cache.stats()["misses"] == 2


class TestConstantsResolveOncePerRun:
    """A run resolves its plan's constant table in one lookup pass; no
    operator looks a constant up again."""

    def test_cached_run_looks_up_each_constant_once(self, monkeypatch):
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
        engine.select(template.format("hub"))
        # ex:rare, ex:common and the lifted object.
        slots = compiled_for(engine, template.format("hub")).root.constants
        assert len(slots.terms) == 3
        calls = []
        lookup = ValuesTable.lookup

        def counting(self, term):
            calls.append(term)
            return lookup(self, term)

        monkeypatch.setattr(ValuesTable, "lookup", counting)
        for constant in ("hub", "nowhere"):
            calls.clear()
            hits = engine.plan_cache.stats()["hits"]
            engine.select(template.format(constant))
            assert engine.plan_cache.stats()["hits"] == hits + 1
            assert len(calls) == 3, constant

    def test_a_run_freezes_the_table(self):
        engine = chain_engine(3)
        compiled = compiled_for(
            engine, "SELECT ?x WHERE { ?x ex:follows ex:nowhere }"
        )
        constants = compiled.root.constants
        ExecContext(
            engine.network, engine.network.model("m"), constants=constants
        )
        # A slot already in the table is read; a new constant would index
        # past the run's IDs, so it fails where it is added.
        assert constants.slot(constants.terms[1]) == 1
        with pytest.raises(RuntimeError, match="not in the compiled plan"):
            constants.slot(ex("elsewhere"))
