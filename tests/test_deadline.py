"""Query deadline (timeout) behaviour: cooperative aborts everywhere."""

import time

import pytest

from repro.obs import metrics
from repro.rdf import IRI, Quad
from repro.sparql import Deadline, QueryTimeout, SparqlEngine, SparqlError
from repro.sparql.deadline import deadline_for
from repro.store import SemanticNetwork

EX = "http://ex/"


def ex(name):
    return IRI(EX + name)


@pytest.fixture(autouse=True)
def _metrics_off():
    metrics.disable()
    metrics.reset()
    yield
    metrics.disable()
    metrics.reset()


@pytest.fixture
def pathological_engine():
    """2000 quads whose 3-way cartesian product is 8e9 rows — any
    engine evaluating it to completion has failed the deadline test."""
    network = SemanticNetwork()
    network.create_model("m")
    network.bulk_load("m", [
        Quad(ex(f"s{i}"), ex("p"), ex(f"o{i % 50}")) for i in range(2000)
    ])
    return SparqlEngine(network, default_model="m")


CARTESIAN = (
    "SELECT (COUNT(*) AS ?c) WHERE { "
    "?a <http://ex/p> ?b . ?c <http://ex/p> ?d . ?e <http://ex/p> ?f }"
)


class TestDeadlineObject:
    def test_requires_positive_timeout(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1)

    def test_deadline_for_none(self):
        assert deadline_for(None) is None
        assert deadline_for(0.5).timeout == 0.5

    def test_expires(self):
        deadline = Deadline(0.01, stride=1)
        time.sleep(0.02)
        assert deadline.expired
        assert deadline.remaining() <= 0
        with pytest.raises(QueryTimeout):
            deadline.tick()

    def test_tick_strides_clock_reads(self):
        deadline = Deadline(10, stride=4)
        for _ in range(100):
            deadline.tick()  # never raises with 10s left

    def test_query_timeout_is_sparql_error(self):
        # Servers catching SparqlError for 400s must special-case the
        # timeout first; the subclass relationship is intentional.
        assert issubclass(QueryTimeout, SparqlError)
        exc = QueryTimeout(0.5, 0.7)
        assert exc.timeout == 0.5
        assert exc.elapsed == 0.7


class TestEngineTimeouts:
    def test_runaway_query_stops_within_2x(self, pathological_engine):
        start = time.perf_counter()
        with pytest.raises(QueryTimeout) as err:
            pathological_engine.query(CARTESIAN, timeout=0.3)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.6, f"stopped after {elapsed:.3f}s (2x budget)"
        assert err.value.timeout == 0.3

    def test_store_usable_after_timeout(self, pathological_engine):
        with pytest.raises(QueryTimeout):
            pathological_engine.query(CARTESIAN, timeout=0.2)
        result = pathological_engine.select(
            "SELECT (COUNT(*) AS ?c) WHERE { ?a <http://ex/p> ?b }"
        )
        assert int(result.rows[0][0].lexical) == 2000
        assert pathological_engine.update(
            "INSERT DATA { <http://ex/new> <http://ex/p> <http://ex/o> }"
        )["inserted"] == 1

    def test_engine_level_default_timeout(self, pathological_engine):
        pathological_engine.timeout = 0.2
        with pytest.raises(QueryTimeout):
            pathological_engine.query(CARTESIAN)

    def test_per_call_overrides_engine_default(self, pathological_engine):
        pathological_engine.timeout = 0.1
        # A generous per-call override lets a cheap query through.
        result = pathological_engine.query(
            "SELECT (COUNT(*) AS ?c) WHERE { ?a <http://ex/p> ?b }",
            timeout=30,
        )
        assert int(result.rows[0][0].lexical) == 2000

    def test_no_timeout_runs_to_completion(self, pathological_engine):
        result = pathological_engine.select(
            "SELECT (COUNT(*) AS ?c) WHERE "
            "{ ?a <http://ex/p> ?b . FILTER(?b = <http://ex/o1>) }"
        )
        assert int(result.rows[0][0].lexical) == 40

    def test_path_query_times_out(self, pathological_engine):
        # Property-path frontier loops honour the deadline too.
        with pytest.raises(QueryTimeout):
            pathological_engine.query(
                "SELECT (COUNT(*) AS ?c) WHERE { "
                "?a (<http://ex/p>|^<http://ex/p>)* ?b . "
                "?c <http://ex/p> ?d . ?e <http://ex/p> ?f }",
                timeout=0.3,
            )

    def test_prepared_query_timeout(self, pathological_engine):
        prepared = pathological_engine.prepare(CARTESIAN)
        with pytest.raises(QueryTimeout):
            prepared.run(timeout=0.2)

    def test_timeout_metric_incremented(self, pathological_engine):
        metrics.enable()
        with pytest.raises(QueryTimeout):
            pathological_engine.query(CARTESIAN, timeout=0.2)
        assert metrics.registry().counter("query.timeouts") == 1


class CountingDeadline(Deadline):
    """A generous deadline that counts its clock reads."""

    __slots__ = ("reads",)

    def __init__(self):
        super().__init__(3600)
        self.reads = 0

    def check(self):
        self.reads += 1
        super().check()


#: 60 edges from 60 subjects into 10 objects.
STAR = [Quad(ex(f"s{i}"), ex("p"), ex(f"o{i % 10}")) for i in range(60)]
#: Every directed edge between 9 nodes: a cyclic fixture.
CLIQUE = [
    Quad(ex(f"n{i}"), ex("p"), ex(f"n{j}"))
    for i in range(9) for j in range(9) if i != j
]


class TestClockReadsPerBatch:
    """The batched joins read the clock at every flush: one left row
    emits its whole fan-out, so the per-left-row ``tick`` alone reads
    it once per 256 x |right| rows.  Deterministic — counts reads, no
    wall-clock assertion."""

    @pytest.mark.parametrize(
        "query, quads",
        [
            # Cartesian: 60 left rows x 60 right rows.
            (
                "SELECT ?a ?c WHERE { ?a <http://ex/p> ?b . "
                "?c <http://ex/p> ?d }",
                STAR,
            ),
            # Hash join on ?b (60 rows per side, fan-out 6 per key).
            (
                "SELECT ?a ?c WHERE { ?a <http://ex/p> ?b . "
                "{ ?c <http://ex/p> ?b } UNION { ?c <http://ex/q> ?b } }",
                STAR,
            ),
            # Trie join: 504 directed triangles of 9 nodes, one per
            # ordered triple of distinct nodes.
            (
                "SELECT ?a ?b ?c WHERE { ?a <http://ex/p> ?b . "
                "?b <http://ex/p> ?c . ?c <http://ex/p> ?a }",
                CLIQUE,
            ),
        ],
        ids=["cartesian", "hash", "cycle"],
    )
    def test_at_least_one_clock_read_per_emitted_batch(self, query, quads):
        from repro.sparql.executor import compile_query, execute
        from repro.sparql.physical import render_physical

        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load("m", quads)
        engine = SparqlEngine(network, default_model="m")
        model = network.model("m")
        compiled = compile_query(engine._parse_query(query), network, model, "m")
        if quads is CLIQUE:
            assert "TrieJoin" in render_physical(compiled.root)
        deadline = CountingDeadline()
        metrics.enable()
        result = execute(
            compiled, network, model, deadline=deadline, batch_size=16
        )
        batches = metrics.registry().counter("exec.batches")
        assert len(result.rows) >= 360
        assert batches >= len(result.rows) // 60
        # One read is execute()'s entry check.
        assert deadline.reads - 1 >= batches


CARTESIAN_UPDATE = (
    "INSERT { ?a <http://ex/r> ?f } WHERE { "
    "?a <http://ex/p> ?b . ?c <http://ex/p> ?d . ?e <http://ex/p> ?f }"
)


class TestUpdateTimeouts:
    """Updates honour deadlines too — one huge INSERT WHERE must not
    stall every reader behind the writer-preference lock forever."""

    def test_runaway_update_where_times_out(self, pathological_engine):
        start = time.perf_counter()
        with pytest.raises(QueryTimeout) as err:
            pathological_engine.update(CARTESIAN_UPDATE, timeout=0.3)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.6, f"stopped after {elapsed:.3f}s (2x budget)"
        assert err.value.timeout == 0.3
        # The aborted operation applied nothing...
        assert pathological_engine.ask(
            "ASK { ?a <http://ex/r> ?f }"
        ) is False
        # ...and the store (and its locks) stay fully usable.
        assert pathological_engine.update(
            "INSERT DATA { <http://ex/new> <http://ex/p> <http://ex/o> }"
        )["inserted"] == 1

    def test_engine_default_timeout_covers_updates(self, pathological_engine):
        pathological_engine.timeout = 0.2
        with pytest.raises(QueryTimeout):
            pathological_engine.update(CARTESIAN_UPDATE)

    def test_update_lock_wait_times_out(self, pathological_engine):
        # A reader holding the lock keeps the writer queued; the
        # update's deadline fires in the queue instead of waiting
        # unboundedly.
        lock = pathological_engine.network.lock
        assert lock.acquire_read()
        try:
            start = time.perf_counter()
            with pytest.raises(QueryTimeout):
                pathological_engine.update(
                    "INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> }",
                    timeout=0.2,
                )
            assert time.perf_counter() - start < 0.4
        finally:
            lock.release_read()

    def test_update_timeout_metric_incremented(self, pathological_engine):
        metrics.enable()
        with pytest.raises(QueryTimeout):
            pathological_engine.update(CARTESIAN_UPDATE, timeout=0.2)
        assert metrics.registry().counter("query.timeouts") == 1
