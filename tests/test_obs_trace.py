"""Tests for the hierarchical span tracer (repro.obs.trace).

Two promises matter most: when tracing is *off* the instrumented hot
paths allocate nothing and change nothing; when it is *on*, one trace
tree covers the whole request — parse, plan, every operator, lock
acquisition and (on a durable store) WAL append + fsync.
"""

import json
import os
import threading
import time

import pytest

from repro.core import PropertyGraphRdfStore
from repro.datasets.twitter import (
    TwitterConfig,
    connected_tag,
    generate_twitter,
    hub_vertex,
)
from repro.obs import trace
from repro.rdf import Quad
from repro.sparql import SparqlEngine
from repro.store import SemanticNetwork, open_durable

from .conftest import ex

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _tracing_off():
    """Tests must not leak the process-wide tracing flag."""
    trace.disable()
    yield
    trace.disable()


class TestDisabledIsNoop:
    def test_span_returns_shared_singleton(self):
        # No allocation on the disabled path: every call hands back the
        # very same no-op object.
        first = trace.span("anything", key="value")
        second = trace.span("other")
        assert first is second
        assert first is trace.NOOP_SPAN

    def test_noop_span_contextmanager_and_set(self):
        with trace.span("untraced") as span:
            assert span.set("key", 1) is span
        assert not trace.is_active()
        assert trace.current_trace() is None
        assert trace.current_ids() == (None, None)

    def test_engine_results_identical_with_and_without_tracing(
        self, social_engine
    ):
        query = "SELECT ?n WHERE { ?x ex:name ?n } ORDER BY ?n"
        plain = social_engine.select(query)
        traced_engine = SparqlEngine(
            social_engine.network,
            prefixes={"ex": "http://ex/"},
            default_model="social",
            trace=True,
        )
        traced = traced_engine.select(query)
        assert plain.rows == traced.rows
        assert plain.variables == traced.variables

    def test_untraced_engine_attaches_no_trace(self, social_engine):
        result = social_engine.select("SELECT ?n WHERE { ?x ex:name ?n }")
        assert result.stats is None or result.stats.trace is None

    def test_untraced_queries_build_no_span(self, monkeypatch):
        # The disabled tracer's cost as a count, not a timing: the
        # Figure 5 queries build no span object at all.
        built = []

        class CountingSpan(trace.Span):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(args[3])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(trace, "Span", CountingSpan)
        graph = generate_twitter(TwitterConfig(egos=3, seed=7))
        store = PropertyGraphRdfStore(model="NG")
        store.load(graph)
        hub_iri = store.vocabulary.vertex_iri(hub_vertex(graph)).value
        queries = store.queries.experiment_queries(
            connected_tag(graph), hub_iri
        )
        for name in ("EQ1", "EQ2", "EQ3", "EQ4"):
            assert len(store.select(queries[name])) > 0, name
        assert built == []
        with trace.enabled():
            store.select(queries["EQ1"])
        assert "op.IndexScan" in built  # the counter does see spans


class TestEngineTracing:
    def test_select_builds_span_tree(self, social_engine):
        engine = SparqlEngine(
            social_engine.network,
            prefixes={"ex": "http://ex/"},
            default_model="social",
            trace=True,
        )
        result = engine.select(
            "SELECT ?n WHERE { ?x ex:name ?n } ORDER BY ?n"
        )
        tree = result.stats.trace
        assert tree is not None
        root = tree.root
        assert root.name == "query"
        for name in ("parse", "execute", "plan", "op.IndexScan"):
            assert tree.find(name), f"missing span {name!r}"
        # The scan operator records its cardinalities.
        op = tree.find("op.IndexScan")[0]
        assert op.attributes["rows_out"] == 3
        # Every span is finished and carries the same trace id.
        for span in tree.spans:
            assert span.duration is not None
            assert span.trace_id == tree.trace_id

    def test_global_enable_traces_every_engine(self, social_engine):
        trace.enable()
        result = social_engine.select("SELECT ?n WHERE { ?x ex:name ?n }")
        assert result.stats.trace is not None
        trace.disable()
        result = social_engine.select("SELECT ?n WHERE { ?x ex:name ?n }")
        assert result.stats is None or result.stats.trace is None

    def test_pin_span_times_the_pin(self, social_engine, monkeypatch):
        network = social_engine.network
        pin = network.snapshot

        def slow_pin():
            time.sleep(0.005)
            return pin()

        monkeypatch.setattr(network, "snapshot", slow_pin)
        engine = SparqlEngine(network, default_model="social", trace=True)
        tree = engine.select("SELECT ?s WHERE { ?s ?p ?o }").stats.trace
        (span,) = tree.find("snapshot.pin")
        assert span.duration >= 0.005

    def test_explain_analyze_trace_lines(self, social_engine):
        analysis = social_engine.explain(
            "SELECT ?n WHERE { ?x ex:name ?n }", analyze=True, trace=True
        )
        text = "\n".join(analysis.lines)
        assert f"-- trace {analysis.stats.trace.trace_id} --" in text
        assert "op.IndexScan" in text

    def test_render_is_indented_tree(self, social_engine):
        engine = SparqlEngine(
            social_engine.network,
            prefixes={"ex": "http://ex/"},
            default_model="social",
            trace=True,
        )
        tree = engine.select(
            "SELECT ?n WHERE { ?x ex:name ?n }"
        ).stats.trace
        lines = tree.render().splitlines()
        assert lines[0].startswith("query  ")  # root at depth 0
        # Children are indented under the root.
        assert any(line.startswith("  parse") for line in lines)
        assert any(line.startswith("    op.IndexScan") for line in lines)

    def test_trace_serializes_to_json(self, social_engine):
        engine = SparqlEngine(
            social_engine.network,
            prefixes={"ex": "http://ex/"},
            default_model="social",
            trace=True,
        )
        tree = engine.select(
            "SELECT ?n WHERE { ?x ex:name ?n }"
        ).stats.trace
        document = json.loads(json.dumps(tree.to_dict()))
        assert document["trace_id"] == tree.trace_id
        assert len(document["spans"]) == len(tree)


class TestDurableTracing:
    def test_wal_spans_under_update(self, tmp_path):
        directory = os.path.join(str(tmp_path), "store")
        with trace.tracing("update") as tree:
            store = open_durable(directory)
            store.create_model("m")
            store.insert("m", Quad(ex("a"), ex("p"), ex("b")))
            store.checkpoint()
            store.close()
        assert tree.find("store.recover")
        log_spans = tree.find("store.log")
        assert [s.attributes["op"] for s in log_spans] == [
            "create_model", "insert",
        ]
        appends = tree.find("wal.append")
        assert appends and all(s.attributes["bytes"] > 0 for s in appends)
        assert tree.find("wal.fsync")
        assert tree.find("store.checkpoint")
        assert tree.find("snapshot.save")
        # wal.append nests under its store.log parent.
        assert appends[0].parent_id == log_spans[0].span_id

    def test_traced_query_pins_snapshot_without_locks(self, tmp_path):
        # MVCC contract: queries pin a snapshot (one span, carrying the
        # version) and never touch the store lock — not even while
        # writers hold it for a stream of commits.
        directory = os.path.join(str(tmp_path), "store")
        store = open_durable(directory)
        store.create_model("m")
        store.insert("m", Quad(ex("a"), ex("p"), ex("b")))
        engine = SparqlEngine(store, default_model="m", trace=True)
        query = "SELECT ?s WHERE { ?s <http://ex/p> ?o }"
        tree = engine.select(query).stats.trace
        pins = tree.find("snapshot.pin")
        assert pins and pins[0].attributes["version"] == store.data_version

        stop = threading.Event()

        def writer(index):
            n = 0
            while not stop.is_set():
                a, b = ex(f"w{index}"), ex(f"w{index}-{n}")
                with store.write_batch():
                    store.insert("m", Quad(a, ex("q"), b))
                    store.insert("m", Quad(b, ex("q"), a))
                n += 1

        writers = [threading.Thread(target=writer, args=(i,)) for i in (0, 1)]
        for thread in writers:
            thread.start()
        # Read until the reads have pinned ten different versions, which
        # proves they ran between the writers' commits.
        versions = set()
        try:
            deadline = time.monotonic() + 30
            while len(versions) < 10 and time.monotonic() < deadline:
                tree = engine.select(query).stats.trace
                pin = tree.find("snapshot.pin")[0]
                versions.add(pin.attributes["version"])
                assert not [
                    s for s in tree.spans if s.name.startswith("lock.")
                ]
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in writers)
        assert len(versions) >= 10
        store.close()

    def test_traced_update_sees_write_lock_spans(self, tmp_path):
        directory = os.path.join(str(tmp_path), "store")
        store = open_durable(directory)
        store.create_model("m")
        engine = SparqlEngine(store, default_model="m")
        with trace.tracing("update") as tree:
            engine.update(
                "INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> }"
            )
        locks = tree.find("lock.write.acquire")
        assert locks and locks[0].attributes["acquired"] is True
        assert locks[0].attributes["wait_seconds"] >= 0.0
        store.close()


class TestTracingContext:
    def test_nesting_restores_previous_trace(self):
        with trace.tracing("outer") as outer:
            assert trace.current_trace() is outer
            with trace.tracing("inner") as inner:
                assert trace.current_trace() is inner
            assert trace.current_trace() is outer
        assert trace.current_trace() is None

    def test_exception_still_finishes_spans(self):
        with pytest.raises(ValueError):
            with trace.tracing("boom") as tree:
                with trace.span("child"):
                    raise ValueError("x")
        assert all(span.duration is not None for span in tree.spans)
        assert not trace.is_active()

    def test_adopt_trace_id(self):
        assert trace.adopt_trace_id("abc-123") == "abc-123"
        # Injection-looking or missing ids are replaced, not adopted.
        for bad in (None, "", "no spaces allowed", "x" * 65, "a\nb"):
            adopted = trace.adopt_trace_id(bad)
            assert adopted != bad and len(adopted) == 32


class TestTraceBuffer:
    def test_evicts_oldest(self):
        buffer = trace.TraceBuffer(capacity=2)
        trees = [trace.Trace() for _ in range(3)]
        for tree in trees:
            buffer.add(tree)
        assert len(buffer) == 2
        assert buffer.get(trees[0].trace_id) is None
        assert buffer.get(trees[1].trace_id) is trees[1]
        assert buffer.trace_ids() == [
            trees[1].trace_id, trees[2].trace_id,
        ]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            trace.TraceBuffer(capacity=0)
