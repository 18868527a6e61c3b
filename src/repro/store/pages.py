"""Packed columnar index pages.

A :class:`SemanticIndex` used to keep one big sorted Python list of
4-int key tuples.  This module replaces that with *pages*: fixed-target
runs of keys stored column-wise in packed ``array`` buffers, the way a
disk-resident index stores compressed leaf blocks.  Three encodings are
chosen per column, per page, by measured size:

``raw``
    A plain ``array('q')`` of 8-byte IDs (the fallback).
``for``
    Frame-of-reference: the column's minimum plus an array of unsigned
    offsets in the narrowest width that fits the spread.  The leading
    key column of a page is a sorted run, so this is the
    delta-compressed form of it (every value is a small delta against
    the page base) while keeping O(1) random access for binary search.
``dict``
    Dictionary encoding: the distinct term IDs once, in first-seen
    order, plus narrow codes.  Index key columns such as P or G have
    few distinct values per page, which is exactly the skew Table 2 of
    the paper describes.

Pages are immutable once built.  :class:`PagedKeys` stacks them into a
mutable sorted container with *page-granular copy-on-write*: a snapshot
(:meth:`PagedKeys.share`) copies only the list of page references, and
a later write thaws just the page it touches (:meth:`PagedKeys._own`),
so pinned MVCC snapshots keep scanning the exact frozen bytes they
captured while writers repack only what they dirtied.

The standalone ``delta_encode``/``delta_decode`` and
``dict_encode``/``dict_decode`` codecs are the property-tested kernels
(`tests/test_store_pages.py`) that the page encodings are built from.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left, insort
from itertools import accumulate, chain
from array import array
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs import metrics as _obs

QuadIds = Tuple[int, int, int, int]

#: Target number of keys per frozen page.  Mutable runs split once they
#: grow past twice this.  Overridable for tests (tiny pages force page
#: boundaries and splits everywhere) via ``REPRO_PAGE_SIZE``.
DEFAULT_PAGE_SIZE = 1024


def default_page_size() -> int:
    size = int(os.environ.get("REPRO_PAGE_SIZE", DEFAULT_PAGE_SIZE))
    return max(1, size)


# ----------------------------------------------------------------------
# Width helpers
# ----------------------------------------------------------------------

_UNSIGNED_CODES = (("B", 0xFF), ("H", 0xFFFF), ("I", 0xFFFFFFFF), ("Q", (1 << 64) - 1))
_SIGNED_CODES = (
    ("b", -0x80, 0x7F),
    ("h", -0x8000, 0x7FFF),
    ("i", -0x80000000, 0x7FFFFFFF),
    ("q", -(1 << 63), (1 << 63) - 1),
)


def _unsigned_code(maxval: int) -> str:
    for code, cap in _UNSIGNED_CODES:
        if maxval <= cap:
            return code
    raise OverflowError(f"value {maxval} exceeds 64-bit unsigned range")


def _signed_code(minval: int, maxval: int) -> str:
    for code, lo, hi in _SIGNED_CODES:
        if lo <= minval and maxval <= hi:
            return code
    raise OverflowError(f"range [{minval}, {maxval}] exceeds 64-bit signed range")


# ----------------------------------------------------------------------
# Codecs (property-tested in tests/test_store_pages.py)
# ----------------------------------------------------------------------


def delta_encode(values: Sequence[int]) -> Tuple[int, int, array]:
    """Encode ``values`` as ``(count, first, deltas)``.

    ``deltas`` holds successive differences in the narrowest signed
    array type that fits.  Sorted runs produce small non-negative
    deltas, hence narrow bytes; the codec itself round-trips any
    64-bit-safe int sequence.
    """
    vals = list(values)
    if not vals:
        return 0, 0, array("b")
    deltas = [b - a for a, b in zip(vals, vals[1:])]
    if deltas:
        code = _signed_code(min(deltas), max(deltas))
    else:
        code = "b"
    return len(vals), vals[0], array(code, deltas)


def delta_decode(count: int, first: int, deltas: array) -> List[int]:
    """Inverse of :func:`delta_encode`."""
    if count == 0:
        return []
    return list(accumulate(chain((first,), deltas)))


def dict_encode(values: Sequence[int]) -> Tuple[array, array]:
    """Encode ``values`` as ``(dictionary, codes)``.

    The dictionary lists distinct values in first-seen order; codes are
    indexes into it, in the narrowest unsigned array type that fits.
    """
    mapping = {}
    codes: List[int] = []
    append = codes.append
    for value in values:
        code = mapping.get(value)
        if code is None:
            code = mapping[value] = len(mapping)
        append(code)
    dictionary = array("q", mapping)
    code_type = _unsigned_code(len(mapping) - 1 if mapping else 0)
    return dictionary, array(code_type, codes)


def dict_decode(dictionary: array, codes: array) -> List[int]:
    """Inverse of :func:`dict_encode`."""
    return [dictionary[code] for code in codes]


# ----------------------------------------------------------------------
# Column encoding selection
# ----------------------------------------------------------------------

_RAW = 0
_FOR = 1
_DICT = 2

#: Per-page fixed overhead charged by ``nbytes`` (object headers,
#: first/last keys); keeps storage reports honest without weighing
#: CPython internals.
_PAGE_OVERHEAD = 64


def _encode_column(values: List[int]):
    """Pick the smallest of raw / frame-of-reference / dictionary."""
    n = len(values)
    lo = min(values)
    hi = max(values)
    raw_size = 8 * n
    spread = hi - lo
    for_size = 8 + array(_unsigned_code(spread)).itemsize * n
    distinct = len(set(values))
    if distinct <= 0xFFFF:
        dict_size = 8 * distinct + array(_unsigned_code(max(distinct - 1, 0))).itemsize * n
    else:
        dict_size = raw_size + 1
    best = min(for_size, dict_size, raw_size)
    if best == for_size:
        offsets = array(_unsigned_code(spread), [v - lo for v in values])
        return (_FOR, lo, offsets), for_size
    if best == dict_size:
        dictionary, codes = dict_encode(values)
        return (_DICT, dictionary, codes), dict_size
    return (_RAW, array("q", values)), raw_size


def _column_get(col, i: int) -> int:
    tag = col[0]
    if tag == _FOR:
        return col[1] + col[2][i]
    if tag == _DICT:
        return col[1][col[2][i]]
    return col[1][i]


def _column_slice(col, lo: int, hi: int) -> List[int]:
    tag = col[0]
    if tag == _FOR:
        base = col[1]
        return [base + offset for offset in col[2][lo:hi]]
    if tag == _DICT:
        dictionary = col[1]
        return [dictionary[code] for code in col[2][lo:hi]]
    return list(col[1][lo:hi])


def _column_bytes(col) -> bytes:
    tag = col[0]
    if tag == _FOR:
        return col[1].to_bytes(8, "big", signed=True) + col[2].tobytes()
    if tag == _DICT:
        return col[1].tobytes() + col[2].tobytes()
    return col[1].tobytes()


class Page:
    """One immutable run of sorted keys, stored column-wise."""

    __slots__ = ("count", "first", "last", "nbytes", "_cols", "_decoded")

    @classmethod
    def build(cls, keys: Sequence[QuadIds]) -> "Page":
        if not keys:
            raise ValueError("cannot build an empty page")
        page = cls.__new__(cls)
        page.count = len(keys)
        page.first = keys[0]
        page.last = keys[-1]
        cols = []
        nbytes = _PAGE_OVERHEAD
        for position in range(4):
            col, size = _encode_column([key[position] for key in keys])
            cols.append(col)
            nbytes += size
        page._cols = tuple(cols)
        page.nbytes = nbytes
        page._decoded = None
        return page

    def _keys_all(self) -> List[QuadIds]:
        """Whole-page decode, cached on first use.

        The probe-side analogue of a block cache: a page that index
        probes keep bisecting holds its decoded key tuples, so the
        binary searches and key-window slices run as C-level tuple
        comparisons instead of per-slot column decodes.  The packed
        columns remain the canonical storage — ``nbytes`` and
        :meth:`tobytes` never count the cache.
        """
        decoded = self._decoded
        if decoded is None:
            decoded = list(zip(*self.columns(0, self.count)))
            self._decoded = decoded
        return decoded

    def key(self, i: int) -> QuadIds:
        cols = self._cols
        return (
            _column_get(cols[0], i),
            _column_get(cols[1], i),
            _column_get(cols[2], i),
            _column_get(cols[3], i),
        )

    def columns(self, lo: int = 0, hi: Optional[int] = None):
        """Decode the ``[lo, hi)`` window of all four key columns."""
        if hi is None:
            hi = self.count
        cols = self._cols
        return (
            _column_slice(cols[0], lo, hi),
            _column_slice(cols[1], lo, hi),
            _column_slice(cols[2], lo, hi),
            _column_slice(cols[3], lo, hi),
        )

    def keys(self, lo: int = 0, hi: Optional[int] = None) -> List[QuadIds]:
        if hi is None:
            hi = self.count
        return self._keys_all()[lo:hi]

    def bisect_left(self, target: Tuple[int, ...]) -> int:
        """First slot whose key is >= ``target`` (prefix tuples compare
        shorter-first, exactly like bisect over full key tuples)."""
        return bisect_left(self._keys_all(), target)

    def tobytes(self) -> bytes:
        """The packed column payload (for byte-identity assertions)."""
        return b"".join(_column_bytes(col) for col in self._cols)


Segment = Union[Page, List[QuadIds]]


def _after(prefix: Tuple[int, ...]) -> Tuple[int, ...]:
    """The first key target past every key starting with ``prefix``."""
    return prefix[:-1] + (prefix[-1] + 1,)


class PagedKeys:
    """A sorted key container made of frozen pages and mutable runs.

    Invariants: segments are non-empty and globally ordered (every key
    in segment *i* sorts before every key in segment *i+1*); keys are
    unique.  Frozen :class:`Page` segments may be shared with any
    number of snapshots; mutable ``list`` segments are always private.
    """

    __slots__ = ("segments", "page_size", "_count", "_starts", "_lasts")

    def __init__(self, page_size: Optional[int] = None):
        self.segments: List[Segment] = []
        self.page_size = page_size or default_page_size()
        self._count = 0
        self._starts: Optional[List[int]] = None
        self._lasts: Optional[List[QuadIds]] = None

    @classmethod
    def from_sorted(
        cls, keys: Sequence[QuadIds], page_size: Optional[int] = None
    ) -> "PagedKeys":
        """Build directly into full frozen pages (bulk-load path)."""
        paged = cls(page_size)
        size = paged.page_size
        segments = paged.segments
        for start in range(0, len(keys), size):
            segments.append(Page.build(keys[start : start + size]))
        paged._count = len(keys)
        if segments and _obs.is_active():
            _obs.inc("pages.frozen", len(segments))
        return paged

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: QuadIds) -> bool:
        i = self._segment_for(key)
        return i < len(self.segments) and self._holds(i, key)

    def __iter__(self) -> Iterator[QuadIds]:
        for segment in self.segments:
            if type(segment) is list:
                yield from segment
            else:
                yield from segment.keys()

    # -- snapshots -----------------------------------------------------

    def freeze(self) -> Tuple[Page, ...]:
        """Pack every mutable run into an immutable page and return the
        full page tuple.  Idempotent; already-frozen pages are reused as
        is, which is what makes snapshot capture O(dirty)."""
        segments = self.segments
        packed = 0
        for i, segment in enumerate(segments):
            if type(segment) is list:
                segments[i] = Page.build(segment)
                packed += 1
        if packed and _obs.is_active():
            _obs.inc("pages.frozen", packed)
        return tuple(segments)

    def share(self) -> "PagedKeys":
        """A snapshot copy sharing every (frozen) page.

        Call after :meth:`freeze`.  Only the segment reference list is
        copied; a later write on either side thaws its own copy of the
        touched page, so neither side observes the other's mutations.
        """
        clone = PagedKeys.__new__(PagedKeys)
        clone.segments = list(self.segments)
        clone.page_size = self.page_size
        clone._count = self._count
        clone._starts = self._starts
        # Safe to share: both caches are rebuilt from scratch (never
        # mutated in place) after either side invalidates its own.
        clone._lasts = self._lasts
        return clone

    # -- mutation (page-granular copy-on-write) ------------------------

    def _own(self, i: int) -> List[QuadIds]:
        """The private, mutable run for segment ``i`` (thawing a frozen
        page first — this is the copy-on-write step)."""
        segment = self.segments[i]
        if type(segment) is list:
            return segment
        if _obs.is_active():
            started = time.perf_counter()
            thawed = segment.keys()
            _obs.observe("store.cow_copy_seconds", time.perf_counter() - started)
            _obs.inc("pages.thawed")
        else:
            thawed = segment.keys()
        self.segments[i] = thawed
        return thawed

    def _lasts_list(self) -> List[QuadIds]:
        """Cached per-segment last keys, so segment routing is one
        C-level bisect instead of a Python comparison loop.  Rebuilt
        (never mutated in place) after any structural change, like
        :meth:`_starts_list`."""
        lasts = self._lasts
        if lasts is None:
            lasts = [
                segment[-1] if type(segment) is list else segment.last
                for segment in self.segments
            ]
            self._lasts = lasts
        return lasts

    def _segment_for(self, key: Tuple[int, ...]) -> int:
        """Index of the first segment whose last key is >= ``key``
        (``len(segments)`` if the key sorts after everything)."""
        return bisect_left(self._lasts_list(), key)

    def insert(self, key: QuadIds) -> bool:
        """Add ``key``; False (and nothing thawed) if it is present."""
        segments = self.segments
        if not segments:
            segments.append([key])
            self._count = 1
            self._starts = None
            self._lasts = None
            return True
        i = min(self._segment_for(key), len(segments) - 1)
        if self._holds(i, key):
            return False
        run = self._own(i)
        run.insert(bisect_left(run, key), key)
        self._count += 1
        self._starts = None
        self._lasts = None
        if len(run) > 2 * self.page_size:
            mid = len(run) // 2
            segments[i : i + 1] = [run[:mid], run[mid:]]
        return True

    def delete(self, key: QuadIds) -> bool:
        """Remove ``key``; False (and nothing thawed) if it is absent."""
        segments = self.segments
        i = self._segment_for(key)
        if i == len(segments) or not self._holds(i, key):
            return False
        run = self._own(i)
        del run[bisect_left(run, key)]
        self._count -= 1
        self._starts = None
        self._lasts = None
        if not run:
            del segments[i]
        return True

    def _holds(self, i: int, key: QuadIds) -> bool:
        """Whether segment ``i`` holds ``key``, probed in place so a
        frozen page is never thawed just to find out."""
        segment = self.segments[i]
        if type(segment) is list:
            pos = bisect_left(segment, key)
            return pos < len(segment) and segment[pos] == key
        pos = segment.bisect_left(key)
        return pos < segment.count and segment.key(pos) == key

    # -- search --------------------------------------------------------

    def _starts_list(self) -> List[int]:
        starts = self._starts
        if starts is None:
            starts = [0]
            total = 0
            for segment in self.segments:
                total += len(segment) if type(segment) is list else segment.count
                starts.append(total)
            self._starts = starts
        return starts

    def position(self, target: Tuple[int, ...]) -> Tuple[int, int]:
        """(segment index, in-segment offset) of the first key >= target."""
        i = self._segment_for(target)
        if i == len(self.segments):
            return i, 0
        segment = self.segments[i]
        if type(segment) is list:
            return i, bisect_left(segment, target)
        return i, segment.bisect_left(target)

    def rank(self, target: Tuple[int, ...]) -> int:
        """Number of keys strictly before ``target`` (global bisect)."""
        i, offset = self.position(target)
        return self._starts_list()[i] + offset

    def count(self, prefix: Tuple[int, ...]) -> int:
        """Number of keys starting with ``prefix`` (all keys for ``()``)."""
        if not prefix:
            return self._count
        return self.rank(_after(prefix)) - self.rank(prefix)

    def slices(
        self, prefix: Tuple[int, ...]
    ) -> Iterator[Tuple[Segment, int, int]]:
        """Yield the ``(segment, lo, hi)`` windows of the keys starting
        with ``prefix`` (every key for ``()``).  Empty windows are
        skipped.
        """
        segments = self.segments
        if not segments:
            return
        last = len(segments) - 1
        if not prefix:
            seg_lo, off_lo, seg_hi, off_hi = 0, 0, last, None
        else:
            seg_lo, off_lo = self.position(prefix)
            seg_hi, off_hi = self.position(_after(prefix))
            if seg_hi == len(segments):
                seg_hi, off_hi = last, None
            elif off_hi == 0:
                if seg_hi == seg_lo:
                    return
                seg_hi -= 1
                off_hi = None
        for i in range(seg_lo, seg_hi + 1):
            segment = segments[i]
            size = len(segment) if type(segment) is list else segment.count
            lo = off_lo if i == seg_lo else 0
            hi = size if (i != seg_hi or off_hi is None) else off_hi
            if lo < hi:
                yield segment, lo, hi

    # -- statistics ----------------------------------------------------

    def page_stats(self) -> dict:
        """Packed-size statistics over the frozen pages (mutable runs
        are counted as pending, at raw-tuple estimate)."""
        pages = 0
        packed_bytes = 0
        pending = 0
        for segment in self.segments:
            if type(segment) is list:
                pending += len(segment)
            else:
                pages += 1
                packed_bytes += segment.nbytes
        return {
            "pages": pages,
            "packed_bytes": packed_bytes,
            "pending_entries": pending,
            "entries": self._count,
        }
