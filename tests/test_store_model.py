"""Unit tests for semantic models (partitions)."""

import gc
import os
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.rdf import IRI, Quad
from repro.store import IndexSpecError, SemanticModel, SemanticNetwork

QUADS = [
    (1, 10, 2, 0),
    (1, 10, 3, 0),
    (2, 10, 3, 5),
    (2, 11, 1, 5),
]


def make_model(**kwargs):
    model = SemanticModel("m", **kwargs)
    model.bulk_load(QUADS)
    return model


class TestLifecycle:
    def test_default_indexes(self):
        model = SemanticModel("m")
        assert model.index_specs == ["PCSG", "PSCG"]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            SemanticModel("")

    def test_create_index_backfills(self):
        model = make_model()
        model.create_index("GSPCM")
        assert sorted(model.index("GSPC").range_scan((None, None, None, 5))) == [
            (2, 10, 3, 5),
            (2, 11, 1, 5),
        ]

    def test_create_index_idempotent(self):
        model = make_model()
        first = model.create_index("GSPC")
        assert model.create_index("GSPCM") is first

    def test_drop_index(self):
        model = make_model()
        model.create_index("GSPC")
        model.drop_index("GSPCM")
        assert not model.has_index("GSPC")

    def test_cannot_drop_last_index(self):
        model = SemanticModel("m", index_specs=["PCSG"])
        with pytest.raises(IndexSpecError):
            model.drop_index("PCSG")

    def test_drop_missing_index(self):
        with pytest.raises(IndexSpecError):
            make_model().drop_index("GSPC")


class TestDml:
    def test_insert(self):
        model = make_model()
        assert model.insert((9, 9, 9, 0))
        assert (9, 9, 9, 0) in model
        assert len(model) == len(QUADS) + 1

    def test_insert_duplicate_returns_false(self):
        model = make_model()
        assert not model.insert(QUADS[0])
        assert len(model) == len(QUADS)

    def test_delete(self):
        model = make_model()
        assert model.delete(QUADS[0])
        assert QUADS[0] not in model
        # indexes updated too
        assert QUADS[0] not in list(model.scan((None, None, None, None)))

    def test_delete_missing_returns_false(self):
        assert not make_model().delete((99, 99, 99, 99))

    def test_bulk_load_merges_duplicates(self):
        model = make_model()
        added = model.bulk_load([QUADS[0], (7, 7, 7, 0)])
        assert added == 1
        assert len(model) == len(QUADS) + 1

    def test_clear(self):
        model = make_model()
        model.clear()
        assert len(model) == 0
        assert list(model.scan((None, None, None, None))) == []


class TestAccessPaths:
    def test_choose_index_prefers_longest_prefix(self):
        model = make_model()
        index, length = model.choose_index((1, 10, None, None))
        assert index.spec == "PSCG"  # P,S prefix beats P,C prefix of PCSG
        assert length == 2

    def test_choose_index_object_bound(self):
        model = make_model()
        index, length = model.choose_index((None, 10, 3, None))
        assert index.spec == "PCSG"
        assert length == 2

    def test_scan_matches_naive_filter(self):
        model = make_model()
        pattern = (None, 10, None, None)
        naive = sorted(q for q in QUADS if q[1] == 10)
        assert sorted(model.scan(pattern)) == naive

    def test_estimate(self):
        model = make_model()
        assert model.estimate((None, 10, None, None)) == 3
        assert model.estimate((None, None, None, None)) == len(QUADS)

    def test_distinct_counts(self):
        counts = make_model().distinct_counts()
        assert counts == {"subjects": 2, "predicates": 2, "objects": 3, "graphs": 1}

    def test_table_storage_scales_with_rows(self):
        small = SemanticModel("a")
        small.bulk_load(QUADS[:1])
        big = make_model()
        assert big.table_storage_bytes() > small.table_storage_bytes()


class TestPredicateHistogram:
    def test_counts_by_predicate(self):
        model = make_model()
        assert model.predicate_histogram() == {10: 3, 11: 1}

    def test_empty_model(self):
        assert SemanticModel("m").predicate_histogram() == {}

    def test_sp_skew_visible(self):
        """SP's one-property-per-edge skew shows up in the histogram."""
        from repro.core import MODEL_NG, MODEL_SP, PropertyGraphRdfStore
        from repro.datasets.twitter import TwitterConfig, generate_twitter

        graph = generate_twitter(TwitterConfig(egos=4, seed=2))
        histograms = {}
        for name in (MODEL_NG, MODEL_SP):
            store = PropertyGraphRdfStore(model=name)
            store.load(graph)
            histograms[name] = store.network.model("pg").predicate_histogram()
        assert len(histograms[MODEL_SP]) > len(histograms[MODEL_NG]) + (
            graph.edge_count - 1
        )
        # NG: few predicates, large counts.
        assert max(histograms[MODEL_NG].values()) > 100
        # SP: the per-edge predicates each appear exactly once.
        singletons = sum(
            1 for count in histograms[MODEL_SP].values() if count == 1
        )
        assert singletons >= graph.edge_count


# ----------------------------------------------------------------------
# The indexes are the model: DML against a Python set
# ----------------------------------------------------------------------


def _iri(i: int) -> IRI:
    return IRI(f"http://ex/{i}")


_GRAPHS = st.sampled_from([None, _iri(10), _iri(11)])
_QUADS = st.builds(
    lambda s, p, o, g: Quad(_iri(s), _iri(p), _iri(o), g),
    st.integers(0, 2), st.integers(3, 4), st.integers(0, 2), _GRAPHS,
)
_DML = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _QUADS),
        st.tuples(st.just("delete"), _QUADS),
        st.tuples(st.just("bulk"), st.lists(_QUADS, max_size=12)),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("clear_graph"), _GRAPHS),
        st.tuples(st.just("index"), st.sampled_from(["GSPC", "SPCG", "CPSG"])),
        st.tuples(st.just("snapshot"), st.none()),
    ),
    max_size=30,
)


def _assert_model_is(network, expected):
    model = network.model("m")
    decode = network.decode_quad
    assert len(model) == len(expected)
    listed = [decode(quad) for quad in model]
    assert len(listed) == len(expected) and set(listed) == expected
    for quad in expected:
        assert network.contains("m", quad)
    for spec in model.index_specs:
        index = model.index(spec)
        assert len(index) == len(expected)
        assert {decode(q) for q in index.range_scan((None,) * 4)} == expected


class TestModelDmlIsASet:
    """Every DML path of a model (at page size 4, so each membership
    check crosses page boundaries) answers as a Python set would, and
    each snapshot keeps the set as it stood at capture."""

    @settings(max_examples=60, deadline=None)
    @given(_DML)
    def test_dml_matches_a_set(self, ops):
        with mock.patch.dict(os.environ, {"REPRO_PAGE_SIZE": "4"}):
            network = SemanticNetwork()
            network.create_model("m")
            expected = set()
            snapshots = []
            for op, arg in ops:
                if op == "insert":
                    assert network.insert("m", arg) == (arg not in expected)
                    expected.add(arg)
                elif op == "delete":
                    assert network.delete("m", arg) == (arg in expected)
                    expected.discard(arg)
                elif op == "bulk":
                    fresh = set(arg) - expected
                    assert network.bulk_load("m", arg) == len(fresh)
                    expected |= fresh
                elif op == "clear":
                    assert network.clear_model("m") == len(expected)
                    expected.clear()
                elif op == "clear_graph":
                    if arg is None:
                        continue
                    doomed = {q for q in expected if q.graph == arg}
                    assert network.clear_model("m", arg) == len(doomed)
                    expected -= doomed
                elif op == "index":
                    network.model("m").create_index(arg)
                else:
                    snapshots.append((network.snapshot(), set(expected)))
                _assert_model_is(network, expected)
            for snapshot, captured in snapshots:
                model = snapshot.model("m")
                assert len(model) == len(captured)
                assert set(snapshot.quads("m")) == captured


class TestModelCounters:
    def test_retained_bytes_per_quad_are_the_pages(self, monkeypatch):
        """A loaded model keeps its quads only as packed index pages: a
        per-quad Python object (a 4-tuple alone is 72 bytes) breaks the
        bound.  Measured with production-size pages."""
        monkeypatch.setenv("REPRO_PAGE_SIZE", "1024")
        count = 20000
        gc.collect()
        tracemalloc.start()
        try:
            quads = [(s, 1 + s % 7, 2 * s, s % 50) for s in range(1, count + 1)]
            model = SemanticModel("m")
            assert model.bulk_load(quads) == count
            del quads
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(model) == count
        assert retained / count < 32, retained / count

    def test_duplicate_insert_after_a_snapshot_thaws_nothing(self):
        network = SemanticNetwork()
        network.create_model("m")
        quads = [Quad(_iri(s), _iri(100), _iri(s + 1)) for s in range(50)]
        network.bulk_load("m", quads)
        pinned = network.snapshot()
        with metrics.enabled(fresh=True) as registry:
            assert not network.insert("m", quads[7])
            assert registry.counter("pages.thawed") == 0
            assert network.insert("m", Quad(_iri(7), _iri(100), _iri(0)))
            assert registry.counter("pages.thawed") >= 1
        assert len(pinned.model("m")) == len(quads)
