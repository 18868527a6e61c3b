"""Semantic network indexes.

Oracle lets users build indexes on a semantic model keyed by any
permutation of S (subject), P (predicate), C (canonical object) and
G (graph); M (model) is implicit because each index here is local to
one semantic model, exactly as the paper describes ("indexes are local
to a partition").  Index spec strings may therefore be written with or
without a trailing ``M`` — ``PCSGM`` and ``PCSG`` name the same index.

An index is a sorted run of key tuples in permuted order, stored as
packed columnar pages (:mod:`repro.store.pages`).  A *range scan*
binds a prefix of the key and walks the contiguous run of matching
entries; a *full index scan* walks everything and filters.  Both
access paths are what the paper's Table 5 plans use.

Pages are published copy-on-write for MVCC readers: :meth:`publish`
freezes the current pages for a snapshot, and the next mutation thaws
a private copy of just the page it touches (``store.cow_copy_seconds``
times the thaws, ``pages.thawed`` counts them), so a pinned snapshot
keeps scanning the exact pages it captured while writers move on.

Every read runs one window-decode loop (:meth:`_window_batches`): it
decodes only the page windows a scan touches and builds output rows by
zipping column slices.  :meth:`range_row_batches` yields those rows a
window at a time; :meth:`range_scan` is the same scan flattened into
canonical quads.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

from repro.obs import metrics as _obs
from repro.store.pages import Page, PagedKeys, default_page_size

QuadIds = Tuple[int, int, int, int]
Row = Tuple[int, ...]
#: A lazy scan's window size: a row count, or a callable read before
#: each window — a consumer whose batch target grows, like the
#: executor's ramp under LIMIT.  ``None``: whole page slices.
MaxRows = Union[None, int, Callable[[], int]]

_POSITIONS = {"S": 0, "P": 1, "C": 2, "G": 3}
#: The canonical positions of a whole quad.
_QUAD = (0, 1, 2, 3)


class IndexSpecError(ValueError):
    """Raised for malformed index specification strings."""


def normalize_spec(spec: str) -> str:
    """Validate and normalize an index spec like ``PCSGM`` -> ``PCSG``.

    The spec must be a permutation of a subset of S, P, C, G with an
    optional trailing M; at least one key column is required.
    """
    if not isinstance(spec, str) or not spec:
        raise IndexSpecError("index spec must be a non-empty string")
    upper = spec.upper()
    if upper.endswith("M"):
        upper = upper[:-1]
    if not upper:
        raise IndexSpecError(f"index spec {spec!r} has no key columns")
    seen = set()
    for letter in upper:
        if letter == "M":
            # Catches a doubled trailing M ("PCSGMM") and M in a key
            # position ("SMP") with a precise message instead of the
            # generic invalid-letter error.
            raise IndexSpecError(
                f"misplaced 'M' in index spec {spec!r}: M (model) may "
                "appear only once, as the trailing column"
            )
        if letter not in _POSITIONS:
            raise IndexSpecError(f"invalid index key letter {letter!r} in {spec!r}")
        if letter in seen:
            raise IndexSpecError(f"duplicate index key letter {letter!r} in {spec!r}")
        seen.add(letter)
    return upper


#: Layout constants per normalized spec: every index with the same spec
#: shares one (order, inverse) pair instead of re-deriving them per
#: instance.  Keyed by the *input* spelling too, so aliases ("pcsgm",
#: "PCSG") resolve without re-normalizing twice.
_LAYOUT_CACHE: Dict[str, Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = {}


def layout_for(spec: str) -> Tuple[str, Tuple[int, ...], Tuple[int, ...]]:
    """(normalized spec, key order, inverse permutation) for ``spec``.

    ``order`` lists the canonical quad positions in key order, padded
    with the positions missing from the spec so every entry is a full
    permutation of (s, p, c, g) and entries are unique per quad.
    """
    cached = _LAYOUT_CACHE.get(spec)
    if cached is not None:
        return cached
    normalized = normalize_spec(spec)
    cached = _LAYOUT_CACHE.get(normalized)
    if cached is None:
        order = tuple(_POSITIONS[letter] for letter in normalized)
        order = order + tuple(i for i in range(4) if i not in order)
        inverse = [0, 0, 0, 0]
        for key_pos, quad_pos in enumerate(order):
            inverse[quad_pos] = key_pos
        cached = (normalized, order, tuple(inverse))
        _LAYOUT_CACHE[normalized] = cached
    _LAYOUT_CACHE[spec] = cached
    return cached


class SemanticIndex:
    """One sorted composite-key index over a model's quads."""

    __slots__ = ("spec", "order", "_inverse", "_paged")

    def __init__(self, spec: str, page_size: Optional[int] = None):
        self.spec, self.order, self._inverse = layout_for(spec)
        self._paged = PagedKeys(page_size or default_page_size())

    @property
    def key_length(self) -> int:
        """Number of user-specified key columns (before padding)."""
        return len(self.spec)

    def __len__(self) -> int:
        return len(self._paged)

    def __contains__(self, quad: QuadIds) -> bool:
        return self._permute(quad) in self._paged

    def _permute(self, quad: QuadIds) -> QuadIds:
        order = self.order
        return (quad[order[0]], quad[order[1]], quad[order[2]], quad[order[3]])

    def publish(self) -> Tuple[Page, ...]:
        """Freeze and return the current pages for a snapshot.

        After this call every page is immutable: the next ``insert`` /
        ``delete`` thaws a private copy of the page it touches
        (page-granular copy-on-write), so every snapshot holding the
        returned pages keeps a stable view at O(dirty pages) capture
        cost.
        """
        return self._paged.freeze()

    def view(self) -> "SemanticIndex":
        """An immutable snapshot view sharing this index's pages.

        The view is a full :class:`SemanticIndex` (same spec, same scan
        code paths) whose pages are the published current pages; a
        mutation of either object thaws its own page copy first, so
        neither can see the other's later writes.
        """
        self.publish()
        clone = SemanticIndex.__new__(SemanticIndex)
        clone.spec = self.spec
        clone.order = self.order
        clone._inverse = self._inverse
        clone._paged = self._paged.share()
        return clone

    def bulk_build(self, quads: Iterable[QuadIds]) -> int:
        """Rebuild the index from canonical quads, merging duplicates.

        Returns the number of entries built.
        """
        keys = [key for key, _ in groupby(sorted(map(self._permute, quads)))]
        self._paged = PagedKeys.from_sorted(keys, self._paged.page_size)
        return len(keys)

    def insert(self, quad: QuadIds) -> bool:
        """Add ``quad``; False if the index already holds it."""
        return self._paged.insert(self._permute(quad))

    def delete(self, quad: QuadIds) -> bool:
        """Remove ``quad``; False if the index does not hold it."""
        return self._paged.delete(self._permute(quad))

    def _prefix(self, bound: Sequence[Optional[int]]) -> Tuple[int, ...]:
        """The values of the leading key columns ``bound`` binds."""
        prefix: List[int] = []
        for quad_pos in self.order:
            value = bound[quad_pos]
            if value is None:
                break
            prefix.append(value)
        return tuple(prefix)

    def prefix_length(self, bound: Sequence[Optional[int]]) -> int:
        """How many leading key columns the bound pattern covers.

        ``bound`` is the canonical (s, p, c, g) pattern with ``None``
        for unbound positions.  The planner picks the index maximizing
        this value.
        """
        return len(self._prefix(bound))

    def range_scan(self, bound: Sequence[Optional[int]]) -> Iterator[QuadIds]:
        """Scan quads matching the bound prefix, filtering the rest.

        Yields canonical (s, p, c, g) tuples: the flattened
        :meth:`range_row_batches` of whole quads.  With an empty usable
        prefix this degrades to a full index scan with filtering,
        matching Oracle's behaviour for unselective patterns.
        """
        return chain.from_iterable(self.range_row_batches(bound, _QUAD))

    def range_row_batches(
        self,
        bound: Sequence[Optional[int]],
        positions: Tuple[int, ...],
        max_rows: MaxRows = None,
    ) -> Iterator[List[Row]]:
        """Lazy vectorized range scan: one list of rows per page window.

        The batch kernel behind IndexScan: each yielded batch is one
        decoded page-window slice, its rows the tuples of the requested
        canonical ``positions`` (e.g. ``(0, 2)`` for subject and
        object), built by zipping decoded column slices — no
        intermediate key tuples.  ``max_rows`` caps the window size
        below a full page so a consumer that stops early (LIMIT, ASK)
        never decodes — or counts as scanned — the rest of the page
        (:data:`MaxRows`: a callable lets the windows grow with it);
        scan counters are reported in a ``finally`` for exactly the
        windows consumed, so an abandoned scan reports what it touched.
        """
        return PreparedProbe(self, bound, positions).batches(bound, max_rows)

    def _window_batches(
        self,
        prefix: Tuple[int, ...],
        residual: Sequence[Tuple[int, int]],
        key_positions: Tuple[int, ...],
        max_rows: MaxRows,
    ) -> Iterator[List[Row]]:
        """The one window-decode loop of every index read, with the
        scan layout resolved by :class:`PreparedProbe`."""
        if max_rows is None or callable(max_rows):
            window = max_rows
        else:
            window = lambda: max_rows  # noqa: E731
        if len(key_positions) == 1:
            # A slice keeps a one-column row a tuple.
            only = key_positions[0]
            project = itemgetter(slice(only, only + 1))
        elif key_positions:
            project = itemgetter(*key_positions)
        scanned = 0
        matched = 0
        try:
            for segment, seg_lo, seg_hi in self._paged.slices(prefix):
                lo = seg_lo
                while lo < seg_hi:
                    hi = seg_hi if window is None else min(
                        seg_hi, lo + max(1, window())
                    )
                    scanned += hi - lo
                    if residual or type(segment) is list:
                        keys = (
                            segment[lo:hi]
                            if type(segment) is list
                            else segment.keys(lo, hi)
                        )
                        if residual:
                            keys = [
                                key
                                for key in keys
                                if all(
                                    key[pos] == value
                                    for pos, value in residual
                                )
                            ]
                        if key_positions:
                            batch: List[Row] = list(map(project, keys))
                        else:
                            batch = [()] * len(keys)
                    elif key_positions:
                        cols = segment.columns(lo, hi)
                        batch = list(zip(*(cols[kp] for kp in key_positions)))
                    else:
                        batch = [()] * (hi - lo)
                    matched += len(batch)
                    yield batch
                    lo = hi
        finally:
            if _obs.is_active():
                _obs.record_scan(self.spec, len(prefix), scanned, matched)

    def prepare_probe(
        self, bound: Sequence[Optional[int]], positions: Tuple[int, ...]
    ) -> "PreparedProbe":
        """Compile the value-independent parts of a repeated probe.

        See :class:`PreparedProbe`; ``bound`` supplies only the
        *shape* (which slots are bound), its values are ignored.
        """
        return PreparedProbe(self, bound, positions)

    def range_quads(self, bound: Sequence[Optional[int]]) -> List[QuadIds]:
        """Materialized :meth:`range_scan`: canonical quads as a list."""
        return list(self.range_scan(bound))

    def count_prefix(self, bound: Sequence[Optional[int]]) -> int:
        """Count entries matching the usable bound prefix (no residual filter)."""
        return self._paged.count(self._prefix(bound))

    def storage_bytes(self) -> int:
        """Estimated on-disk size with Oracle-style key prefix compression.

        Adjacent index entries share leading key columns; a compressed
        index stores each repeated leading column once.  We charge 8
        bytes per stored column plus 2 bytes row overhead.  (See
        :meth:`page_storage_bytes` for the measured packed size of the
        in-memory pages.)
        """
        total = 0
        previous: Optional[QuadIds] = None
        for key in self._paged:
            if previous is None:
                shared = 0
            else:
                shared = 0
                while shared < 4 and key[shared] == previous[shared]:
                    shared += 1
            total += (4 - shared) * 8 + 2
            previous = key
        return total

    def page_storage_bytes(self) -> int:
        """Measured packed size of the index's columnar pages."""
        self._paged.freeze()
        return self._paged.page_stats()["packed_bytes"]

    def page_stats(self) -> dict:
        """Page-level statistics (count, packed bytes, pending entries)."""
        return self._paged.page_stats()


class PreparedProbe:
    """A repeated index probe with its layout compiled once.

    A nested-loop join probes the same pattern *shape* once per input
    row — only the bound values change, never which slots are bound.
    Re-deriving the usable key prefix, residual checks and output
    column mapping per row (and re-ranking candidate indexes per row,
    as :meth:`SemanticModel.choose_index` does) dominates probe cost
    once page lookups are cheap.  The prepared probe hoists all of it
    to bind time; each :meth:`batches` call is then two page bisects
    plus window decodes.  A one-off scan
    (:meth:`SemanticIndex.range_row_batches`) is a probe prepared for
    one call, so every index read takes this path.
    """

    __slots__ = ("index", "_mask", "_prefix_qps", "_residual",
                 "_key_positions")

    def __init__(
        self,
        index: SemanticIndex,
        bound: Sequence[Optional[int]],
        positions: Tuple[int, ...],
    ):
        self.index = index
        self._mask = tuple(value is not None for value in bound)
        length = index.prefix_length(bound)
        self._prefix_qps = index.order[:length]
        self._residual = tuple(
            (key_pos, quad_pos)
            for key_pos, quad_pos in enumerate(index.order)
            if key_pos >= length and bound[quad_pos] is not None
        )
        self._key_positions = tuple(index._inverse[p] for p in positions)

    def matches(self, bound: Sequence[Optional[int]]) -> bool:
        """Whether ``bound`` has the bound-slot mask this probe was
        prepared for.  An OPTIONAL above the join can leave a join
        variable unbound at runtime, changing the usable prefix — such
        rows must fall back to the general scan path."""
        return (
            (bound[0] is not None),
            (bound[1] is not None),
            (bound[2] is not None),
            (bound[3] is not None),
        ) == self._mask

    def batches(
        self,
        bound: Sequence[Optional[int]],
        max_rows: MaxRows = None,
    ) -> Iterator[List[Row]]:
        """One scan: lazy decoded windows of the rows matching ``bound``
        (``store.scans`` counts it)."""
        if _obs.is_active():
            _obs.inc("store.scans")
        return self.index._window_batches(
            tuple(bound[qp] for qp in self._prefix_qps),
            [(kp, bound[qp]) for kp, qp in self._residual],
            self._key_positions,
            max_rows,
        )
