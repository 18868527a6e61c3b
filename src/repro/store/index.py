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

Besides the classic tuple-at-a-time :meth:`range_scan` generator the
index exposes :meth:`range_rows`, the vectorized access path: it
decodes only the page windows a scan touches and builds output rows by
zipping column slices, never materializing intermediate key tuples.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
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

    def _permute(self, quad: QuadIds) -> QuadIds:
        order = self.order
        return (quad[order[0]], quad[order[1]], quad[order[2]], quad[order[3]])

    def _unpermute(self, key: QuadIds) -> QuadIds:
        inv = self._inverse
        return (key[inv[0]], key[inv[1]], key[inv[2]], key[inv[3]])

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

    def bulk_build(self, quads: Sequence[QuadIds]) -> None:
        """Rebuild the index from scratch from canonical quads."""
        permute = self._permute
        keys = sorted(permute(quad) for quad in quads)
        self._paged = PagedKeys.from_sorted(keys, self._paged.page_size)

    def insert(self, quad: QuadIds) -> None:
        self._paged.insert(self._permute(quad))

    def delete(self, quad: QuadIds) -> None:
        self._paged.delete(self._permute(quad))

    def prefix_length(self, bound: Sequence[Optional[int]]) -> int:
        """How many leading key columns the bound pattern covers.

        ``bound`` is the canonical (s, p, c, g) pattern with ``None``
        for unbound positions.  The planner picks the index maximizing
        this value.
        """
        length = 0
        for quad_pos in self.order:
            if bound[quad_pos] is None:
                break
            length += 1
        return length

    def _prefix_residual(self, bound: Sequence[Optional[int]]):
        """(prefix values, residual position checks) for ``bound``."""
        prefix: List[int] = []
        for quad_pos in self.order:
            value = bound[quad_pos]
            if value is None:
                break
            prefix.append(value)
        plen = len(prefix)
        residual = [
            (key_pos, bound[quad_pos])
            for key_pos, quad_pos in enumerate(self.order)
            if key_pos >= plen and bound[quad_pos] is not None
        ]
        return prefix, residual

    @staticmethod
    def _prefix_targets(prefix: List[int]):
        if not prefix:
            return None, None
        return tuple(prefix), tuple(prefix[:-1] + [prefix[-1] + 1])

    def range_scan(self, bound: Sequence[Optional[int]]) -> Iterator[QuadIds]:
        """Scan quads matching the bound prefix, filtering the rest.

        Yields canonical (s, p, c, g) tuples.  With an empty usable
        prefix this degrades to a full index scan with filtering,
        matching Oracle's behaviour for unselective patterns.
        """
        prefix, residual = self._prefix_residual(bound)
        lo_target, hi_target = self._prefix_targets(prefix)
        windows = self._paged.slices(lo_target, hi_target)
        unpermute = self._unpermute
        if not _obs.is_active():
            # Fast path: no metrics sink is listening, keep the loops bare.
            for segment, lo, hi in windows:
                keys = segment[lo:hi] if type(segment) is list else segment.keys(lo, hi)
                if residual:
                    for key in keys:
                        if all(key[pos] == value for pos, value in residual):
                            yield unpermute(key)
                else:
                    for key in keys:
                        yield unpermute(key)
            return
        # Counting path: tally entries examined vs. matched locally and
        # report once per scan (in ``finally`` so abandoned generators
        # still report what they touched).
        scanned = 0
        matched = 0
        try:
            for segment, lo, hi in windows:
                keys = segment[lo:hi] if type(segment) is list else segment.keys(lo, hi)
                if residual:
                    for key in keys:
                        scanned += 1
                        if all(key[pos] == value for pos, value in residual):
                            matched += 1
                            yield unpermute(key)
                else:
                    # Without residual filters every scanned entry matches,
                    # so one counter suffices (matched is set on exit).
                    for key in keys:
                        scanned += 1
                        yield unpermute(key)
        finally:
            if not residual:
                matched = scanned
            _obs.record_scan(self.spec, len(prefix), scanned, matched)

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
        windows consumed, matching the abandoned-generator semantics
        of :meth:`range_scan`.
        """
        prefix, residual = self._prefix_residual(bound)
        lo_target, hi_target = self._prefix_targets(prefix)
        key_positions = tuple(self._inverse[p] for p in positions)
        return self._window_batches(
            lo_target, hi_target, residual, key_positions, len(prefix), max_rows
        )

    def _window_batches(
        self,
        lo_target: Optional[Tuple[int, ...]],
        hi_target: Optional[Tuple[int, ...]],
        residual: Sequence[Tuple[int, int]],
        key_positions: Tuple[int, ...],
        prefix_length: int,
        max_rows: MaxRows,
    ) -> Iterator[List[Row]]:
        """The window-decode loop behind :meth:`range_row_batches`,
        with the scan layout already resolved (shared with
        :class:`PreparedProbe`, which resolves it once per join)."""
        if max_rows is None or callable(max_rows):
            window = max_rows
        else:
            window = lambda: max_rows  # noqa: E731
        scanned = 0
        matched = 0
        try:
            for segment, seg_lo, seg_hi in self._paged.slices(
                lo_target, hi_target
            ):
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
                            batch: List[Row] = [
                                tuple(key[kp] for kp in key_positions)
                                for key in keys
                            ]
                        else:
                            batch = [() for _ in keys]
                    else:
                        if key_positions:
                            cols = segment.columns(lo, hi)
                            batch = list(
                                zip(*(cols[kp] for kp in key_positions))
                            )
                        else:
                            batch = [()] * (hi - lo)
                    matched += len(batch)
                    yield batch
                    lo = hi
        finally:
            if _obs.is_active():
                _obs.record_scan(self.spec, prefix_length, scanned, matched)

    def prepare_probe(
        self, bound: Sequence[Optional[int]], positions: Tuple[int, ...]
    ) -> "PreparedProbe":
        """Compile the value-independent parts of a repeated probe.

        See :class:`PreparedProbe`; ``bound`` supplies only the
        *shape* (which slots are bound), its values are ignored.
        """
        return PreparedProbe(self, bound, positions)

    def range_rows(
        self,
        bound: Sequence[Optional[int]],
        positions: Tuple[int, ...],
    ) -> List[Row]:
        """Materialized :meth:`range_row_batches`: one flat row list."""
        rows: List[Row] = []
        for batch in self.range_row_batches(bound, positions):
            rows.extend(batch)
        return rows

    def range_quads(self, bound: Sequence[Optional[int]]) -> List[QuadIds]:
        """Materialized :meth:`range_scan`: canonical quads as a list."""
        return self.range_rows(bound, (0, 1, 2, 3))

    def count_prefix(self, bound: Sequence[Optional[int]]) -> int:
        """Count entries matching the usable bound prefix (no residual filter)."""
        prefix: List[int] = []
        for quad_pos in self.order:
            value = bound[quad_pos]
            if value is None:
                break
            prefix.append(value)
        if not prefix:
            return len(self._paged)
        lo_target, hi_target = self._prefix_targets(prefix)
        paged = self._paged
        return paged.rank(hi_target) - paged.rank(lo_target)

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
    plus window decodes, with the same lazy chunking and scan counters
    as :meth:`SemanticIndex.range_row_batches`.
    """

    __slots__ = ("index", "_mask", "_prefix_qps", "_plen", "_residual",
                 "_key_positions")

    def __init__(
        self,
        index: SemanticIndex,
        bound: Sequence[Optional[int]],
        positions: Tuple[int, ...],
    ):
        self.index = index
        self._mask = tuple(value is not None for value in bound)
        prefix_qps: List[int] = []
        for quad_pos in index.order:
            if bound[quad_pos] is None:
                break
            prefix_qps.append(quad_pos)
        self._prefix_qps = tuple(prefix_qps)
        self._plen = len(prefix_qps)
        self._residual = tuple(
            (key_pos, quad_pos)
            for key_pos, quad_pos in enumerate(index.order)
            if key_pos >= self._plen and bound[quad_pos] is not None
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
        """One probe: lazy decoded windows, as ``range_row_batches``."""
        if _obs.is_active():
            _obs.inc("store.scans")
        if self._prefix_qps:
            prefix = tuple(bound[qp] for qp in self._prefix_qps)
            lo_target: Optional[Tuple[int, ...]] = prefix
            hi_target: Optional[Tuple[int, ...]] = (
                prefix[:-1] + (prefix[-1] + 1,)
            )
        else:
            lo_target = hi_target = None
        residual = [(kp, bound[qp]) for kp, qp in self._residual]
        return self.index._window_batches(
            lo_target, hi_target, residual, self._key_positions,
            self._plen, max_rows,
        )
