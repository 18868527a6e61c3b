"""Semantic models: the store's quad partitions.

A semantic model holds one RDF dataset (default-graph triples plus
named-graph quads) as ID-encoded tuples, with one or more semantic
network indexes.  Models are the unit of partitioning in the paper's
Section 3.2 ("each partition in the current Oracle RDF store is
implemented as a separate model").
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs import metrics as _obs
from repro.store.index import (
    IndexSpecError, MaxRows, QuadIds, SemanticIndex, normalize_spec,
)

Pattern = Tuple[Optional[int], Optional[int], Optional[int], Optional[int]]
_FREE: Pattern = (None, None, None, None)


class IndexReads:
    """The read surface of a physical model, over ``self._indexes``.

    Shared by live models and their MVCC snapshot views
    (:mod:`repro.store.snapshot`): the two differ only in who owns the
    indexes — mutable ones here, frozen page-sharing views there.  The
    indexes are the only copy of the data: length, membership and
    iteration read the first index too.
    """

    __slots__ = ()

    def _primary(self) -> SemanticIndex:
        return next(iter(self._indexes.values()))

    def __len__(self) -> int:
        return len(self._primary())

    def __contains__(self, quad: QuadIds) -> bool:
        return quad in self._primary()

    def __iter__(self) -> Iterator[QuadIds]:
        """The quads in the first index's key order."""
        return self._primary().range_scan(_FREE)

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

    def scan(self, pattern: Pattern) -> Iterator[QuadIds]:
        """Scan quads matching ``pattern`` via the best available index."""
        return self.choose_index(pattern)[0].range_scan(pattern)

    def scan_row_batches(
        self,
        pattern: Pattern,
        positions: Tuple[int, ...],
        max_rows: MaxRows = None,
    ) -> Iterator[List[Tuple[int, ...]]]:
        """Vectorized :meth:`scan`: one list of tuples of canonical
        ``positions`` per index page window, decoded lazily so LIMIT/ASK
        consumers stop before decoding the whole range
        (:meth:`~repro.store.index.SemanticIndex.range_row_batches`).
        """
        return self.choose_index(pattern)[0].range_row_batches(
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
        if self._indexes:
            index.bulk_build(iter(self))
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
        first, *others = self._indexes.values()
        if not first.insert(quad):
            return False
        for index in others:
            index.insert(quad)
        return True

    def delete(self, quad: QuadIds) -> bool:
        """Delete one quad; returns False if it was absent."""
        first, *others = self._indexes.values()
        if not first.delete(quad):
            return False
        for index in others:
            index.delete(quad)
        return True

    def bulk_load(self, quads: Iterable[QuadIds]) -> int:
        """Load many quads at once, rebuilding indexes (fast path).

        Returns the number of new quads added (duplicates are merged,
        matching set semantics of RDF graphs): each index sorts its
        keys and drops repeats, and loading into a non-empty model
        merges in the quads already there.
        """
        batch = list(quads)
        if not batch:
            return 0
        before = len(self)
        batch.extend(self)
        first, *others = self._indexes.values()
        added = first.bulk_build(batch) - before
        if added:
            for index in others:
                index.bulk_build(batch)
        return added

    def clear(self) -> None:
        for index in self._indexes.values():
            index.bulk_build(())

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def distinct_counts(self) -> Dict[str, int]:
        """Distinct value counts per position (optimizer statistics)."""
        subjects, predicates, objects, graphs = set(), set(), set(), set()
        for s, p, c, g in self:
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
        return len(self) * (4 * 8 + 11)
