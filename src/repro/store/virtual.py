"""Virtual models: UNION views over semantic models.

The paper uses virtual models to query several partitions at once
("if more than one partition is accessed, a virtual model containing
all those partitions is used").  A virtual model exposes the same scan
interface as a :class:`repro.store.model.SemanticModel`, merging the
member models' results with set semantics (UNION, not UNION ALL,
matching Oracle's default).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.store.index import QuadIds, SemanticIndex
from repro.store.model import IndexReads, Pattern


class VirtualModel:
    """A read-only UNION of physical models.

    The one union-view implementation: members are live
    :class:`~repro.store.model.SemanticModel` partitions, or — inside a
    :class:`~repro.store.snapshot.NetworkSnapshot` — their frozen
    :class:`~repro.store.snapshot.SnapshotModel` views.
    """

    def __init__(
        self,
        name: str,
        members: Sequence[IndexReads],
        union_all: bool = False,
    ):
        if not members:
            raise ValueError("a virtual model needs at least one member model")
        self.name = name
        self.members: Tuple[IndexReads, ...] = tuple(members)
        self.union_all = union_all

    def __len__(self) -> int:
        if self.union_all:
            return sum(len(member) for member in self.members)
        seen = set()
        for member in self.members:
            seen.update(iter(member))
        return len(seen)

    def __contains__(self, quad: QuadIds) -> bool:
        return any(quad in member for member in self.members)

    def __iter__(self) -> Iterator[QuadIds]:
        if self.union_all:
            for member in self.members:
                yield from member
            return
        seen = set()
        for member in self.members:
            for quad in member:
                if quad not in seen:
                    seen.add(quad)
                    yield quad

    def scan(self, pattern: Pattern) -> Iterator[QuadIds]:
        """Merge per-member index scans (deduplicated unless UNION ALL)."""
        if len(self.members) == 1:
            yield from self.members[0].scan(pattern)
            return
        if self.union_all:
            for member in self.members:
                yield from member.scan(pattern)
            return
        seen = set()
        for member in self.members:
            for quad in member.scan(pattern):
                if quad not in seen:
                    seen.add(quad)
                    yield quad

    def scan_row_batches(self, pattern: Pattern, positions, max_rows=None):
        """Vectorized :meth:`scan`: one row list per index page window.

        A multi-member UNION must see every member before deduplicating,
        so there is nothing to gain from page-window laziness: it
        answers one batch, projected from :meth:`scan`.
        """
        if len(self.members) == 1:
            return self.members[0].scan_row_batches(
                pattern, positions, max_rows
            )
        rows = [tuple(quad[p] for p in positions) for quad in self.scan(pattern)]
        return iter((rows,))

    def scan_prober(self, pattern: Pattern, positions):
        """Prepared probes need a single index; UNION views have none."""
        if len(self.members) == 1:
            return self.members[0].scan_prober(pattern, positions)
        return None

    def estimate(self, pattern: Pattern) -> int:
        return sum(member.estimate(pattern) for member in self.members)

    def choose_index(self, pattern: Pattern) -> Tuple[SemanticIndex, int]:
        """Report the access path of the first member (for EXPLAIN output)."""
        return self.members[0].choose_index(pattern)

    @property
    def member_names(self) -> List[str]:
        return [member.name for member in self.members]

    def insert(self, quad: QuadIds) -> bool:
        raise TypeError("virtual models are read-only")

    def delete(self, quad: QuadIds) -> bool:
        raise TypeError("virtual models are read-only")
