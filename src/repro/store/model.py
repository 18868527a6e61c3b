"""Semantic models: the store's quad partitions.

A semantic model holds one RDF dataset (default-graph triples plus
named-graph quads) as ID-encoded tuples, with one or more semantic
network indexes.  Models are the unit of partitioning in the paper's
Section 3.2 ("each partition in the current Oracle RDF store is
implemented as a separate model").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.obs import metrics as _obs
from repro.store.index import (
    IndexSpecError, MaxRows, QuadIds, SemanticIndex, normalize_spec,
)

Pattern = Tuple[Optional[int], Optional[int], Optional[int], Optional[int]]


class IndexReads:
    """The index-read surface of a physical model, over ``self._indexes``.

    Shared by live models and their MVCC snapshot views
    (:mod:`repro.store.snapshot`): the two differ only in who owns the
    indexes — mutable ones here, frozen page-sharing views there.
    """

    __slots__ = ()

    @property
    def index_specs(self) -> List[str]:
        return list(self._indexes)

    def index(self, spec: str) -> SemanticIndex:
        return self._indexes[normalize_spec(spec)]

    def choose_index(self, pattern: Pattern) -> Tuple[SemanticIndex, int]:
        """Pick the cheapest index for ``pattern``.

        Cost-based, like Oracle's optimizer: choose the index whose
        usable key prefix selects the fewest entries (exact counts from
        the index itself), breaking ties by longer prefix.  A prefix
        length of zero means the scan degrades to a full index scan
        with filtering.
        """
        best: Optional[SemanticIndex] = None
        best_cost: Optional[Tuple[int, int]] = None
        for index in self._indexes.values():
            length = index.prefix_length(pattern)
            matched = index.count_prefix(pattern) if length else len(index)
            cost = (matched, -length)
            if best_cost is None or cost < best_cost:
                best = index
                best_cost = cost
        assert best is not None  # models always have >= 1 index
        return best, -best_cost[1]

    def _index_for_scan(self, pattern: Pattern) -> SemanticIndex:
        if _obs.is_active():
            _obs.inc("store.scans")
        return self.choose_index(pattern)[0]

    def scan(self, pattern: Pattern) -> Iterator[QuadIds]:
        """Scan quads matching ``pattern`` via the best available index."""
        return self._index_for_scan(pattern).range_scan(pattern)

    def scan_rows(
        self, pattern: Pattern, positions: Tuple[int, ...]
    ) -> List[Tuple[int, ...]]:
        """Vectorized scan: a list of tuples of canonical ``positions``.

        The batch-execution access path — same matches and counters as
        :meth:`scan`, but materialized page-window-at-a-time by the
        index (:meth:`~repro.store.index.SemanticIndex.range_rows`).
        """
        return self._index_for_scan(pattern).range_rows(pattern, positions)

    def scan_row_batches(
        self,
        pattern: Pattern,
        positions: Tuple[int, ...],
        max_rows: MaxRows = None,
    ) -> Iterator[List[Tuple[int, ...]]]:
        """Lazy :meth:`scan_rows`: one row list per index page window.

        Lets LIMIT/ASK consumers stop before decoding the whole range
        (:meth:`~repro.store.index.SemanticIndex.range_row_batches`).
        """
        return self._index_for_scan(pattern).range_row_batches(
            pattern, positions, max_rows
        )

    def scan_prober(self, pattern: Pattern, positions: Tuple[int, ...]):
        """A prepared probe for repeated scans sharing ``pattern``'s
        bound-slot shape: index choice and scan layout resolved once
        at bind time (:class:`~repro.store.index.PreparedProbe`)."""
        index, _ = self.choose_index(pattern)
        return index.prepare_probe(pattern, positions)

    def estimate(self, pattern: Pattern) -> int:
        """Estimated (here: exact) cardinality of ``pattern`` via index prefix.

        Residual (non-prefix) filters are not applied, so this is an
        upper bound, the way an optimizer estimates from index statistics.
        """
        index, _ = self.choose_index(pattern)
        if _obs.is_active():
            _obs.inc("planner.estimates")
        return index.count_prefix(pattern)

    def predicate_histogram(self) -> Dict[int, int]:
        """Quad count per predicate ID (optimizer-statistics view).

        For PG-as-RDF data this exposes the skew Table 2 discusses: NG
        has a handful of predicates with large counts; SP has one
        predicate per edge with counts of 1.
        """
        histogram: Dict[int, int] = {}
        for _, p, _, _ in self:
            histogram[p] = histogram.get(p, 0) + 1
        return histogram


#: Index specs created by default on every model, as in the paper
#: ("two indexes are created by default on all the semantic models:
#: (unique) PCSGM and PSCGM").
DEFAULT_INDEXES = ("PCSGM", "PSCGM")


class SemanticModel(IndexReads):
    """One independently queryable partition of ID-encoded quads."""

    def __init__(self, name: str, index_specs: Sequence[str] = DEFAULT_INDEXES):
        if not name:
            raise ValueError("model name must be non-empty")
        self.name = name
        self._quads: Set[QuadIds] = set()
        self._indexes: Dict[str, SemanticIndex] = {}
        for spec in index_specs:
            self.create_index(spec)

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------

    def create_index(self, spec: str) -> SemanticIndex:
        """Create (and build) an index; idempotent for an existing spec."""
        normalized = normalize_spec(spec)
        existing = self._indexes.get(normalized)
        if existing is not None:
            return existing
        index = SemanticIndex(normalized)
        if self._quads:
            index.bulk_build(list(self._quads))
        self._indexes[normalized] = index
        return index

    def drop_index(self, spec: str) -> None:
        normalized = normalize_spec(spec)
        if normalized not in self._indexes:
            raise IndexSpecError(f"no such index: {spec}")
        if len(self._indexes) == 1:
            raise IndexSpecError("cannot drop the last index of a model")
        del self._indexes[normalized]

    def has_index(self, spec: str) -> bool:
        return normalize_spec(spec) in self._indexes

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def insert(self, quad: QuadIds) -> bool:
        """Insert one quad; returns False if it was already present."""
        if quad in self._quads:
            return False
        self._quads.add(quad)
        for index in self._indexes.values():
            index.insert(quad)
        return True

    def delete(self, quad: QuadIds) -> bool:
        """Delete one quad; returns False if it was absent."""
        if quad not in self._quads:
            return False
        self._quads.remove(quad)
        for index in self._indexes.values():
            index.delete(quad)
        return True

    def bulk_load(self, quads: Sequence[QuadIds]) -> int:
        """Load many quads at once, rebuilding indexes (fast path).

        Returns the number of new quads added (duplicates are merged,
        matching set semantics of RDF graphs).
        """
        before = len(self._quads)
        self._quads.update(quads)
        added = len(self._quads) - before
        if added:
            all_quads = list(self._quads)
            for index in self._indexes.values():
                index.bulk_build(all_quads)
        return added

    def clear(self) -> None:
        self._quads.clear()
        for index in self._indexes.values():
            index.bulk_build([])

    # ------------------------------------------------------------------
    # Contents (index reads: see IndexReads)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._quads)

    def __contains__(self, quad: QuadIds) -> bool:
        return quad in self._quads

    def __iter__(self) -> Iterator[QuadIds]:
        return iter(self._quads)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def distinct_counts(self) -> Dict[str, int]:
        """Distinct value counts per position (optimizer statistics)."""
        subjects, predicates, objects, graphs = set(), set(), set(), set()
        for s, p, c, g in self._quads:
            subjects.add(s)
            predicates.add(p)
            objects.add(c)
            graphs.add(g)
        graphs.discard(0)
        return {
            "subjects": len(subjects),
            "predicates": len(predicates),
            "objects": len(objects),
            "graphs": len(graphs),
        }

    def table_storage_bytes(self) -> int:
        """Estimated quads-table segment size: 4 ID columns + row overhead."""
        return len(self._quads) * (4 * 8 + 11)
