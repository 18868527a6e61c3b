"""Property tests (hypothesis) for the packed columnar index pages.

The page layer is the storage kernel under every index scan, so it is
proven, not hoped, correct:

* the delta and dictionary codecs round-trip arbitrary int runs
  (including negatives and unsorted input — sortedness only buys
  compression, never correctness);
* a :class:`Page` is a faithful columnar image of the keys it was
  built from (decode, random access, bisect, window slices);
* :class:`PagedKeys` under arbitrary insert/delete interleavings with
  tiny pages (boundaries and splits everywhere) behaves exactly like a
  plain sorted tuple list, and a :class:`SemanticIndex` on top of it
  range-scans exactly like naive filtering;
* published (frozen) pages are immutable: after ``share()`` a writer's
  inserts and deletes never change a snapshot's results, nor a single
  packed byte of the pages the snapshot captured;
* index layout constants are cached per spec: every spelling of the
  same spec shares one (order, inverse) pair.
"""

from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.store import SemanticIndex
from repro.store.index import layout_for
from repro.store.pages import (
    Page,
    PagedKeys,
    delta_decode,
    delta_encode,
    dict_decode,
    dict_encode,
)

# Values stay well inside signed 64-bit so deltas can never overflow;
# the sign is exercised explicitly (IDs are positive, codecs are not
# allowed to rely on that).
_INTS = st.integers(min_value=-(2**40), max_value=2**40)
_IDS = st.integers(min_value=0, max_value=2**20)

_KEYS = st.lists(
    st.tuples(_IDS, _IDS, _IDS, _IDS), min_size=1, max_size=60,
    unique=True,
).map(sorted)


# ----------------------------------------------------------------------
# Codec round-trips
# ----------------------------------------------------------------------


class TestCodecRoundTrips:
    @given(st.lists(_INTS, max_size=200))
    def test_delta_round_trips_any_run(self, values):
        count, first, deltas = delta_encode(values)
        assert delta_decode(count, first, deltas) == values

    @given(st.lists(_INTS, max_size=200))
    def test_dict_round_trips_any_run(self, values):
        dictionary, codes = dict_encode(values)
        assert dict_decode(dictionary, codes) == values

    @given(st.lists(_INTS, min_size=2, max_size=200, unique=True).map(sorted))
    def test_delta_on_sorted_runs_is_narrow_when_dense(self, values):
        count, first, deltas = delta_encode(values)
        assert count == len(values)
        assert first == values[0]
        # Sorted input means non-negative deltas bounded by the spread.
        spread = values[-1] - values[0]
        assert all(d >= 0 for d in deltas)
        if spread <= 0x7F:
            assert deltas.itemsize == 1

    @given(st.lists(_INTS, max_size=200))
    def test_dict_codes_are_first_seen_order(self, values):
        dictionary, codes = dict_encode(values)
        assert len(dictionary) == len(set(values))
        assert len(codes) == len(values)
        # The dictionary lists distinct values in first-seen order.
        seen = list(dict.fromkeys(values))
        assert list(dictionary) == seen


# ----------------------------------------------------------------------
# Page: a faithful columnar image of its keys
# ----------------------------------------------------------------------


class TestPageFaithfulness:
    @given(_KEYS)
    def test_page_decodes_to_its_keys(self, keys):
        page = Page.build(keys)
        assert page.count == len(keys)
        assert page.first == keys[0]
        assert page.last == keys[-1]
        assert page.keys() == keys
        assert [page.key(i) for i in range(page.count)] == keys

    @given(_KEYS, st.data())
    def test_window_slices_match_list_slices(self, keys, data):
        page = Page.build(keys)
        lo = data.draw(st.integers(min_value=0, max_value=len(keys)))
        hi = data.draw(st.integers(min_value=lo, max_value=len(keys)))
        assert page.keys(lo, hi) == keys[lo:hi]
        cols = page.columns(lo, hi)
        assert list(zip(*cols)) == keys[lo:hi]

    @given(_KEYS, st.tuples(_IDS, _IDS, _IDS, _IDS))
    def test_bisect_matches_sorted_list_bisect(self, keys, target):
        page = Page.build(keys)
        assert page.bisect_left(target) == bisect_left(keys, target)
        # Prefix targets (how range scans seek) behave identically too.
        for plen in (1, 2, 3):
            prefix = target[:plen]
            assert page.bisect_left(prefix) == bisect_left(keys, prefix)

    @given(_KEYS)
    def test_packed_bytes_never_beat_raw_by_lying(self, keys):
        page = Page.build(keys)
        # tobytes() is the canonical packed payload; the key cache used
        # by probes must not change it.
        before = page.tobytes()
        page.keys()  # populates the decode cache
        assert page.tobytes() == before


# ----------------------------------------------------------------------
# PagedKeys + SemanticIndex vs the plain sorted-tuple model
# ----------------------------------------------------------------------

_OPS = st.lists(
    st.tuples(st.booleans(), st.tuples(_IDS, _IDS, _IDS, _IDS)),
    max_size=80,
)


class TestPagedKeysModelEquivalence:
    @settings(max_examples=60)
    @given(_OPS, st.integers(min_value=1, max_value=4))
    def test_insert_delete_matches_sorted_set(self, ops, page_size):
        paged = PagedKeys(page_size)
        model = set()
        for is_insert, key in ops:
            if is_insert:
                assert paged.insert(key) == (key not in model)
                model.add(key)
            else:
                assert paged.delete(key) == (key in model)
                model.discard(key)
            assert len(paged) == len(model)
        assert list(paged) == sorted(model)

    @settings(max_examples=60)
    @given(_OPS, st.integers(min_value=1, max_value=4), st.data())
    def test_seek_and_rank_match_bisect(self, ops, page_size, data):
        paged = PagedKeys(page_size)
        model = set()
        for is_insert, key in ops:
            if is_insert:
                paged.insert(key)
                model.add(key)
            else:
                paged.delete(key)
                model.discard(key)
        ordered = sorted(model)
        target = data.draw(st.tuples(_IDS, _IDS, _IDS, _IDS))
        assert paged.rank(target) == bisect_left(ordered, target)

    @settings(max_examples=40)
    @given(_OPS, st.data())
    def test_index_range_scan_equals_naive_filter(self, ops, data):
        # page_size=2 puts a page boundary after every other key, so
        # every scan crosses boundaries and every split path runs.
        index = SemanticIndex("PCSGM", page_size=2)
        model = set()
        for is_insert, quad in ops:
            if is_insert:
                index.insert(quad)
                model.add(quad)
            else:
                index.delete(quad)
                model.discard(quad)
        pattern = data.draw(
            st.tuples(*(st.none() | _IDS for _ in range(4)))
        )
        expected = sorted(
            q
            for q in model
            if all(p is None or q[i] == p for i, p in enumerate(pattern))
        )
        assert sorted(index.range_scan(pattern)) == expected
        # The batched access path sees the same rows in the same order.
        flat = [
            row
            for batch in index.range_row_batches(pattern, (0, 1, 2, 3))
            for row in batch
        ]
        assert flat == list(index.range_scan(pattern))
        assert flat == index.range_quads(pattern)
        # max_rows chunking changes batch boundaries, never content.
        chunked = [
            row
            for batch in index.range_row_batches(
                pattern, (0, 1, 2, 3), max_rows=1
            )
            for row in batch
        ]
        assert chunked == flat


# ----------------------------------------------------------------------
# COW immutability of published pages
# ----------------------------------------------------------------------


class TestPublishedPageImmutability:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(_IDS, _IDS, _IDS, _IDS), min_size=1, max_size=40,
            unique=True,
        ),
        _OPS,
    )
    def test_writes_never_touch_published_pages(self, initial, ops):
        paged = PagedKeys(page_size=3)
        for key in sorted(initial):
            paged.insert(key)
        pages = paged.freeze()
        snapshot = paged.share()
        snapshot_keys = list(snapshot)
        payloads = [page.tobytes() for page in pages]
        for is_insert, key in ops:
            if is_insert:
                paged.insert(key)
            else:
                paged.delete(key)
        # The snapshot still yields exactly what it captured, and not
        # one byte of any published page changed.
        assert list(snapshot) == snapshot_keys
        assert [page.tobytes() for page in pages] == payloads

    def test_share_then_write_on_snapshot_leaves_writer_alone(self):
        paged = PagedKeys(page_size=2)
        for i in range(6):
            paged.insert((i, 0, 0, 0))
        paged.freeze()
        snapshot = paged.share()
        snapshot.delete((0, 0, 0, 0))
        snapshot.insert((99, 0, 0, 0))
        assert (0, 0, 0, 0) in list(paged)
        assert (99, 0, 0, 0) not in list(paged)


# ----------------------------------------------------------------------
# Index layout cache: one (order, inverse) pair per spec
# ----------------------------------------------------------------------


class TestLayoutCacheAliasing:
    def test_spellings_of_one_spec_share_layout_constants(self):
        a = SemanticIndex("PCSGM")
        b = SemanticIndex("pcsg")
        c = SemanticIndex("PcSgM")
        assert a.spec == b.spec == c.spec == "PCSG"
        assert a.order is b.order is c.order
        assert a._inverse is b._inverse is c._inverse

    def test_layout_for_caches_by_alias_and_normalized_form(self):
        assert layout_for("pscgm") is layout_for("PSCG")
        assert layout_for("pscgm") is layout_for("pscgm")

    def test_distinct_specs_get_distinct_layouts(self):
        assert layout_for("PCSG")[1] != layout_for("PSCG")[1]
