"""MVCC snapshot reads: immutability, atomic visibility, linearizability.

The contract under test (see ``src/repro/store/snapshot.py``):

* ``SemanticNetwork.snapshot()`` is an O(1) pin of the current
  committed ``data_version`` — one attribute read, no lock;
* a pinned snapshot is immutable: later DML, ``drop_model`` or
  checkpoints never change what it sees;
* queries run entirely against one snapshot, so a multi-quad update is
  either fully visible or not visible at all (no torn reads);
* concurrent query results are *linearizable*: every result equals the
  single-threaded state at some version between the query's start and
  end;
* snapshots are reclaimed by the garbage collector once unpinned.
"""

import gc
import os
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rdf import IRI, Quad
from repro.sparql import SparqlEngine
from repro.store import NetworkSnapshot, SemanticNetwork, StoreError

from .conftest import EX, ex


def quads_of(snapshot_or_network, model="m"):
    return set(snapshot_or_network.quads(model))


class TestSnapshotBasics:
    def make(self, n=3):
        network = SemanticNetwork()
        network.create_model("m")
        for i in range(n):
            network.insert("m", Quad(ex(f"s{i}"), ex("p"), ex(f"o{i}")))
        return network

    def test_snapshot_is_o1_pin(self):
        # Between commits, every pin returns the very same published
        # object — capture happens at commit time, not at pin time.
        network = self.make()
        assert network.snapshot() is network.snapshot()
        assert isinstance(network.snapshot(), NetworkSnapshot)

    def test_snapshot_carries_committed_version(self):
        network = self.make()
        snap = network.snapshot()
        assert snap.data_version == network.data_version
        network.insert("m", Quad(ex("x"), ex("p"), ex("y")))
        assert network.data_version == snap.data_version + 1
        assert network.snapshot() is not snap

    def test_snapshot_immutable_under_inserts_and_deletes(self):
        network = self.make(3)
        snap = network.snapshot()
        before = quads_of(snap)
        network.insert("m", Quad(ex("new"), ex("p"), ex("o")))
        network.delete("m", Quad(ex("s0"), ex("p"), ex("o0")))
        network.clear_model("m")
        assert quads_of(snap) == before
        assert len(snap.model("m")) == 3
        assert len(network.model("m")) == 0

    def test_write_batch_commits_one_version(self):
        network = self.make(0)
        v = network.data_version
        with network.write_batch():
            for i in range(5):
                network.insert("m", Quad(ex(f"b{i}"), ex("p"), ex("o")))
            # Mid-batch: nothing published yet, version unchanged.
            assert network.data_version == v
            assert len(network.snapshot().model("m")) == 0
        assert network.data_version == v + 1
        assert len(network.snapshot().model("m")) == 5

    def test_snapshot_survives_drop_model(self):
        network = self.make(2)
        snap = network.snapshot()
        network.drop_model("m")
        with pytest.raises(StoreError):
            network.model("m")
        # The pinned view still scans the dropped model's data.
        assert len(snap.model("m")) == 2
        assert quads_of(snap) == {
            Quad(ex("s0"), ex("p"), ex("o0")),
            Quad(ex("s1"), ex("p"), ex("o1")),
        }

    def test_snapshot_survives_checkpoint(self, tmp_path):
        from repro.store import open_durable

        store = open_durable(os.path.join(str(tmp_path), "store"))
        store.create_model("m")
        store.insert("m", Quad(ex("a"), ex("p"), ex("b")))
        snap = store.snapshot()
        store.insert("m", Quad(ex("c"), ex("p"), ex("d")))
        store.checkpoint()
        assert quads_of(snap) == {Quad(ex("a"), ex("p"), ex("b"))}
        store.close()

    def test_virtual_models_snapshot(self):
        network = SemanticNetwork()
        network.create_model("m1")
        network.create_model("m2")
        network.insert("m1", Quad(ex("a"), ex("p"), ex("b")))
        network.insert("m2", Quad(ex("c"), ex("p"), ex("d")))
        network.create_virtual_model("v", ["m1", "m2"])
        snap = network.snapshot()
        network.insert("m2", Quad(ex("e"), ex("p"), ex("f")))
        assert len(snap.model("v")) == 2
        assert len(network.model("v")) == 3

    def test_snapshot_scan_matches_live_model(self):
        network = self.make(20)
        snap = network.snapshot()
        live = network.model("m")
        view = snap.model("m")
        for pattern in [
            (None, None, None, None),
            (network.lookup_term(ex("s3")), None, None, None),
            (None, network.lookup_term(ex("p")), None, None),
        ]:
            assert sorted(view.scan(pattern)) == sorted(live.scan(pattern))
            assert view.estimate(pattern) == live.estimate(pattern)

    def test_old_snapshots_are_reclaimed(self):
        network = self.make(1)
        pinned = network.snapshot()
        for i in range(10):
            network.insert("m", Quad(ex(f"r{i}"), ex("p"), ex("o")))
        gc.collect()
        # Only the explicit pin and the currently published snapshot
        # survive; the 9 intermediate versions were collected.
        assert network.live_snapshot_count() <= 2
        assert pinned.data_version < network.data_version
        del pinned
        gc.collect()
        assert network.live_snapshot_count() == 1

    def test_finished_queries_release_their_snapshot_without_gc(self):
        """An execution context forms no reference cycle, so the
        snapshot a finished query pinned (with every page written
        since) is freed at once, not at the next collection."""
        network = self.make(3)
        engine = SparqlEngine(network, default_model="m")
        query = (
            f"SELECT ?s WHERE {{ ?s <{EX}p> ?o "
            f"FILTER EXISTS {{ ?o ?q ?s }} FILTER (?s != ?o) }}"
        )
        gc.collect()
        gc.disable()
        try:
            for i in range(5):
                engine.select(query)
                network.insert("m", Quad(ex(f"r{i}"), ex("p"), ex("o")))
            assert network.live_snapshot_count() == 1
        finally:
            gc.enable()


class TestLockFreeReads:
    def test_query_completes_while_write_lock_held(self, social_engine):
        """The acceptance criterion, literally: a held write lock must
        not delay a query, because queries take no lock at all."""
        network = social_engine.network
        network.lock.acquire_write()
        try:
            done = threading.Event()
            rows = []

            def read():
                rows.extend(
                    social_engine.select(
                        "SELECT ?n WHERE { ?x <http://ex/name> ?n } ORDER BY ?n"
                    ).rows
                )
                done.set()

            thread = threading.Thread(target=read)
            thread.start()
            assert done.wait(timeout=5), "query blocked behind write lock"
            thread.join(timeout=5)
            assert [row[0].lexical for row in rows] == [
                "Alice", "Bob", "Carol",
            ]
        finally:
            network.lock.release_write()

    def test_readers_progress_during_long_update(self):
        """Readers keep answering while an exclusive writer is active."""
        network = SemanticNetwork()
        network.create_model("m")
        engine = SparqlEngine(network, default_model="m")
        engine.update(
            f"INSERT DATA {{ <{EX}a> <{EX}p> <{EX}b> }}"
        )
        in_batch = threading.Event()
        release = threading.Event()

        def long_writer():
            with network.write_batch():
                network.insert("m", Quad(ex("w"), ex("p"), ex("o")))
                in_batch.set()
                release.wait(timeout=10)

        writer = threading.Thread(target=long_writer)
        writer.start()
        try:
            assert in_batch.wait(timeout=5)
            # The batch is open (uncommitted) — reads still answer, and
            # see the pre-batch state.
            result = engine.select("SELECT ?s WHERE { ?s ?p ?o }")
            assert len(result.rows) == 1
        finally:
            release.set()
            writer.join(timeout=10)
        assert len(engine.select("SELECT ?s WHERE { ?s ?p ?o }").rows) == 2


class TestNoTornReads:
    def test_multi_quad_updates_are_atomic(self):
        """4 readers x 2 writers: every UPDATE inserts one <a>, one <b>
        and one <c> triple; a reader catching unequal counts has seen a
        torn (partially applied) update."""
        duration = 1.5
        network = SemanticNetwork()
        network.create_model("m")
        engine = SparqlEngine(network, default_model="m")
        stop_at = time.monotonic() + duration
        errors = []
        reads = [0]
        writes = [0, 0]
        count_query = (
            "SELECT ?p (COUNT(*) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?p"
        )

        def reader():
            try:
                while time.monotonic() < stop_at:
                    result = engine.select(count_query)
                    counts = {
                        row[0].value: int(row[1].lexical)
                        for row in result.rows
                    }
                    a = counts.get(f"{EX}a", 0)
                    b = counts.get(f"{EX}b", 0)
                    c = counts.get(f"{EX}c", 0)
                    if not (a == b == c):
                        errors.append(f"torn read: a={a} b={b} c={c}")
                        return
                    reads[0] += 1
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(f"reader: {exc!r}")

        def writer(index):
            try:
                n = 0
                while time.monotonic() < stop_at:
                    engine.update(
                        "INSERT DATA { "
                        f"<{EX}s{index}-{n}> <{EX}a> <{EX}o> . "
                        f"<{EX}s{index}-{n}> <{EX}b> <{EX}o> . "
                        f"<{EX}s{index}-{n}> <{EX}c> <{EX}o> . "
                        "}"
                    )
                    n += 1
                writes[index] = n
            except Exception as exc:  # noqa: BLE001
                errors.append(f"writer{index}: {exc!r}")

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads += [
            threading.Thread(target=writer, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=duration + 30)
            assert not t.is_alive(), "thread failed to finish (deadlock?)"
        assert errors == []
        assert reads[0] > 0 and sum(writes) > 0


class TestPlanCacheUnderWrites:
    def test_cached_plan_never_serves_stale_rows(self):
        """A cached plan holds no data: every hit runs it against the
        query's own pinned snapshot, so writes never make it serve
        stale rows — and never invalidate it either.  It is recompiled
        only when the quad count crosses a power of two."""
        network = SemanticNetwork()
        network.create_model("m")
        engine = SparqlEngine(network, default_model="m")
        query = f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}"
        for i in range(20):
            network.insert("m", Quad(ex(f"s{i}"), ex("p"), ex("o")))
            rows = engine.select(query).rows
            assert len(rows) == i + 1, "cache served a stale plan/result"
        stats = engine.plan_cache.stats()
        # Compiles at 1, 2, 4, 8 and 16 quads; every other read hits.
        assert stats["misses"] == 5 and stats["hits"] == 15

    def test_cache_consistent_under_write_hammer(self):
        network = SemanticNetwork()
        network.create_model("m")
        engine = SparqlEngine(network, default_model="m")
        query = (
            f"SELECT (COUNT(*) AS ?a) WHERE {{ ?s <{EX}a> ?o }}"
        )
        stop_at = time.monotonic() + 1.0
        errors = []

        def reader():
            try:
                while time.monotonic() < stop_at:
                    engine.select(query)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        def writer():
            try:
                n = 0
                while time.monotonic() < stop_at:
                    network.insert("m", Quad(ex(f"h{n}"), ex("a"), ex("o")))
                    n += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert errors == []
        # The cache still answers correctly after the storm.
        final = int(engine.select(query).rows[0][0].lexical)
        assert final == len(network.model("m"))

    def test_one_shared_plan_runs_concurrently_with_different_bindings(
        self,
    ):
        """Three readers run one query shape with different constants —
        all on the single cached plan — while a writer inserts; each
        answer equals the expectation for the snapshot it ran against."""
        objects, initial, writes = 6, 600, 300  # stays inside [512, 1024)
        network = SemanticNetwork()
        network.create_model("m")
        network.bulk_load(
            "m",
            [
                Quad(ex(f"s{i}"), ex("p"), ex(f"o{i % objects}"))
                for i in range(initial)
            ],
        )
        engine = SparqlEngine(network, default_model="m")
        texts = [
            f"SELECT ?s WHERE {{ ?s <{EX}p> <{EX}o{j}> }}"
            for j in range(objects)
        ]
        asts = [engine._parse_query(text) for text in texts]
        engine.select(texts[0])  # the one compile
        start = network.data_version

        def expected(j, version):
            return {
                f"{EX}s{i}" for i in range(initial) if i % objects == j
            } | {
                f"{EX}n{k}" for k in range(version - start) if k % objects == j
            }

        errors = []
        reads = [0, 0, 0]
        writing = threading.Event()
        writing.set()

        def reader(r):
            try:
                while writing.is_set() or reads[r] < 20:
                    for j in (r, r + 3):
                        snapshot = network.snapshot()
                        result = engine.run_ast(asts[j], snapshot=snapshot)
                        got = {row[0].value for row in result.rows}
                        if got != expected(j, snapshot.data_version):
                            errors.append((j, snapshot.data_version))
                        reads[r] += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        def writer():
            try:
                for k in range(writes):
                    network.insert(
                        "m", Quad(ex(f"n{k}"), ex("p"), ex(f"o{k % objects}"))
                    )
                    time.sleep(0.001)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))
            finally:
                writing.clear()

        threads = [threading.Thread(target=reader, args=(r,)) for r in range(3)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside plan runs
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), "thread failed to finish (deadlock?)"
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        stats = engine.plan_cache.stats()
        assert stats["size"] == 1 and stats["misses"] == 1
        assert stats["hits"] == sum(reads)


POOL = [
    Quad(IRI(f"{EX}s{i}"), IRI(f"{EX}p"), IRI(f"{EX}o{i}")) for i in range(8)
]


class TestLinearizability:
    """Differential test: concurrent reads equal the single-threaded
    oracle at *some* version within the query's [start, end] window.

    This leans on two implementation guarantees: ``data_version`` and
    the visible data are published in one reference swap (so sampling
    the version before and after a query brackets the pinned version),
    and each ``insert``/``delete`` outside a batch commits exactly one
    version.
    """

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(min_value=0, max_value=len(POOL) - 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_concurrent_reads_match_oracle(self, ops):
        network = SemanticNetwork()
        network.create_model("m")
        engine = SparqlEngine(network, default_model="m")
        base_version = network.data_version

        # Single-threaded oracle: state after each prefix of ops.
        state = set()
        oracle = {base_version: frozenset()}
        for i, (op, idx) in enumerate(ops):
            if op == "insert":
                state.add((POOL[idx].subject.value, POOL[idx].object.value))
            else:
                state.discard(
                    (POOL[idx].subject.value, POOL[idx].object.value)
                )
            oracle[base_version + i + 1] = frozenset(state)

        observations = []
        errors = []
        done = threading.Event()
        start = threading.Barrier(3)
        query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"

        def reader():
            try:
                start.wait(timeout=5)
                while not done.is_set():
                    v_start = network.data_version
                    rows = engine.select(query).rows
                    v_end = network.data_version
                    got = frozenset(
                        (row[0].value, row[1].value) for row in rows
                    )
                    observations.append((v_start, got, v_end))
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        def writer():
            try:
                start.wait(timeout=5)
                for op, idx in ops:
                    if op == "insert":
                        network.insert("m", POOL[idx])
                    else:
                        network.delete("m", POOL[idx])
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))
            finally:
                done.set()

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=reader),
            threading.Thread(target=writer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert errors == []
        assert network.data_version == base_version + len(ops)

        for v_start, got, v_end in observations:
            assert any(
                oracle.get(v) == got for v in range(v_start, v_end + 1)
            ), (
                f"result {sorted(got)} matches no version in "
                f"[{v_start}, {v_end}]: "
                f"{[sorted(oracle.get(v, ())) for v in range(v_start, v_end + 1)]}"
            )


class TestPageSplitImmutability:
    """Pinned snapshots survive page splits and rewrites byte-for-byte.

    The columnar page layer makes snapshot capture page-granular COW:
    a writer that splits or thaws a page must do so on a *private*
    copy.  These tests pin a snapshot, hammer the live network until
    splits demonstrably happen (tiny ``REPRO_PAGE_SIZE``), and assert
    the snapshot's batched scans and the packed bytes of every page it
    captured are identical before and after.
    """

    def _published_pages(self, snap_model):
        """Every frozen page segment reachable from a snapshot model."""
        pages = []
        for spec in snap_model.index_specs:
            index = snap_model.index(spec)
            pages.extend(
                seg
                for seg in index._paged.segments
                if type(seg) is not list
            )
        return pages

    def _batched_scan(self, snap_model):
        return [
            list(batch)
            for batch in snap_model.scan_row_batches(
                (None, None, None, None), (0, 1, 2, 3)
            )
        ]

    def test_pinned_batched_scans_survive_page_splits(self, monkeypatch):
        # Tiny pages: page boundaries (and therefore splits) everywhere.
        # The env var is read when each index's PagedKeys is built, so
        # it must be set before the network exists.
        monkeypatch.setenv("REPRO_PAGE_SIZE", "4")
        network = SemanticNetwork()
        network.create_model("m")
        for i in range(40):
            network.insert("m", Quad(ex(f"s{i:03d}"), ex("p"), ex(f"o{i:03d}")))

        snap = network.snapshot()
        model = snap.model("m")
        pages = self._published_pages(model)
        # The snapshot really is backed by frozen pages, not raw runs.
        assert pages
        payloads = [page.tobytes() for page in pages]
        rows = self._batched_scan(model)
        assert sum(len(batch) for batch in rows) == 40

        spec = model.index_specs[0]
        segments_at_pin = len(model.index(spec)._paged.segments)

        # Mutate until splits/rewrites occur: interleave fresh subjects
        # between the pinned ones (splits runs mid-page) and delete a
        # swath of the originals (thaws the pages holding them).
        for i in range(40):
            network.insert(
                "m", Quad(ex(f"s{i:03d}a"), ex("q"), ex(f"v{i:03d}"))
            )
        for i in range(0, 40, 2):
            assert network.delete(
                "m", Quad(ex(f"s{i:03d}"), ex("p"), ex(f"o{i:03d}"))
            )

        live_paged = network.model("m").index(spec)._paged
        # The writer's structure demonstrably changed underneath...
        assert len(live_paged.segments) > segments_at_pin
        live_ids = {id(segment) for segment in live_paged.segments}
        assert any(id(page) not in live_ids for page in pages), (
            "expected at least one pinned page to have been thawed or "
            "rewritten by the writer"
        )

        # ...while the pinned snapshot is byte-identical: same batched
        # scan output, and not one byte of any captured page moved.
        assert self._batched_scan(model) == rows
        assert [page.tobytes() for page in pages] == payloads

    def test_snapshot_scans_identical_across_checkpoint(self, monkeypatch):
        # A checkpoint rewrites the live pages wholesale; the pinned
        # snapshot must not notice.
        monkeypatch.setenv("REPRO_PAGE_SIZE", "4")
        network = SemanticNetwork()
        network.create_model("m")
        for i in range(24):
            network.insert("m", Quad(ex(f"s{i:02d}"), ex("p"), ex(f"o{i:02d}")))
        snap = network.snapshot()
        model = snap.model("m")
        rows = self._batched_scan(model)
        payloads = [p.tobytes() for p in self._published_pages(model)]

        for i in range(24, 96):
            network.insert("m", Quad(ex(f"s{i:02d}"), ex("p"), ex(f"o{i:02d}")))
        if hasattr(network, "checkpoint"):
            network.checkpoint()

        assert self._batched_scan(model) == rows
        assert [p.tobytes() for p in self._published_pages(model)] == payloads
        assert len(quads_of(snap)) == 24
        assert quads_of(snap) <= quads_of(network)
