"""The semantic network: models, virtual models, and one values table.

A :class:`SemanticNetwork` is the top-level store object (Oracle's
"semantic network"): it owns the values table shared by all models, and
manages model lifecycle, bulk loading, and term encoding/decoding.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.rdf.quad import Quad
from repro.rdf.terms import Term
from repro.rdf.nquads import parse_nquads
from repro.store.index import QuadIds
from repro.store.locking import RWLock
from repro.store.model import DEFAULT_INDEXES, SemanticModel
from repro.store.snapshot import NetworkSnapshot, capture_snapshot
from repro.store.values import DEFAULT_GRAPH_ID, ValuesTable
from repro.store.virtual import VirtualModel

AnyModel = Union[SemanticModel, VirtualModel]


class StoreError(Exception):
    """Raised for store-level misuse (unknown/duplicate models, ...)."""


class SemanticNetwork:
    """Top-level RDF store: a values table plus a set of models.

    Concurrency contract (MVCC):

    * **Readers never lock.**  :meth:`snapshot` returns the latest
      *published* :class:`~repro.store.snapshot.NetworkSnapshot` — a
      single attribute read.  A pinned snapshot stays consistent and
      valid no matter what writers do afterwards (copy-on-write index
      arrays, append-only values table).
    * **Writers serialize against each other** on an internal write
      mutex; every mutator commits at its end — bumping the version
      and publishing a fresh snapshot atomically (one reference swap).
      :meth:`write_batch` groups several mutations into *one* commit,
      so a multi-quad SPARQL update becomes visible all-or-nothing.
    * ``data_version`` is derived from the published snapshot, so the
      version a reader observes and the state it scans can never be
      torn apart (the plan cache keys compiled plans to a pinned
      snapshot's version).
    """

    def __init__(self):
        self.values = ValuesTable()
        self._models: Dict[str, SemanticModel] = {}
        self._virtual_models: Dict[str, VirtualModel] = {}
        #: Internal committed-version counter; exposed through the
        #: ``data_version`` property via the published snapshot so the
        #: two can never be observed out of sync.
        self._version = 0
        #: Serializes writers (and snapshot publication).  Reentrant so
        #: ``write_batch`` can wrap the individual mutators.
        self._write_mutex = threading.RLock()
        self._batch_depth = 0
        #: Writer-exclusion lock kept for callers that need *timed*
        #: writer waits (the SPARQL engine's update deadline, durable
        #: checkpoints).  Queries no longer take the read side — MVCC
        #: snapshots replaced it — so this degenerates to a writer
        #: mutex with timeout support.
        self.lock = RWLock()
        #: Live snapshots by version (weak: a snapshot is reclaimed as
        #: soon as the last query pinning it finishes).
        self._snapshots: "weakref.WeakValueDictionary[int, NetworkSnapshot]" = (
            weakref.WeakValueDictionary()
        )
        self._published: NetworkSnapshot = None  # set by _commit below
        with self._write_mutex:
            self._commit()

    # ------------------------------------------------------------------
    # MVCC: versions, commits and snapshots
    # ------------------------------------------------------------------

    @property
    def data_version(self) -> int:
        """The committed version — always that of the published snapshot.

        Term interning alone does not bump it — adding an unused
        dictionary entry cannot change any query result.  (Compiled
        query plans hold no data, so the plan cache does not key on it.)
        """
        return self._published.data_version

    def snapshot(self) -> NetworkSnapshot:
        """Pin the latest committed version — O(1), lock-free.

        The returned view is immutable: scans, membership tests and
        decoding against it are unaffected by concurrent writers,
        ``drop_model`` or checkpoints.  Hold it only as long as needed;
        a pinned snapshot keeps its copy-on-write arrays alive.
        """
        return self._published

    def live_snapshot_count(self) -> int:
        """Number of distinct snapshot versions still referenced
        (the ``snapshot.versions_live`` gauge; includes the published
        one)."""
        return len(self._snapshots)

    @contextmanager
    def write_batch(self):
        """Group several mutations into one atomic commit.

        Inside the batch no intermediate state is published: readers
        keep seeing the pre-batch snapshot until the block exits, then
        observe every change at once under a single new
        ``data_version``.  The SPARQL engine wraps each UPDATE request
        in one batch, which is what makes a K-quad ``INSERT DATA``
        impossible to observe half-applied.  Reentrant.
        """
        with self._mutating():
            yield

    @contextmanager
    def _mutating(self):
        """Writer-side bracket: serialize, and commit at outermost exit.

        The commit runs in a ``finally`` so the published snapshot
        always matches the live state even when a batch fails midway
        (there is no rollback — same contract as the seed store).
        """
        with self._write_mutex:
            self._batch_depth += 1
            try:
                yield
            finally:
                self._batch_depth -= 1
                if self._batch_depth == 0:
                    self._version += 1
                    self._about_to_commit()
                    self._commit()
                    self._committed()

    def _commit(self) -> None:
        """Publish the current state as an immutable snapshot.

        Called with the write mutex held.  Publication is a single
        reference assignment, so readers switch from the old version to
        the new one atomically — there is no instant at which
        ``data_version`` and the visible data disagree.
        """
        snap = capture_snapshot(self)
        self._snapshots[snap.data_version] = snap
        self._published = snap

    def _about_to_commit(self) -> None:
        """Hook: an outermost batch is committing (version already
        bumped, snapshot not yet published).  Durable subclasses use it
        to journal record-less version bumps."""

    def _committed(self) -> None:
        """Hook: a new snapshot was just published.  Durable subclasses
        use it to wake replication senders waiting on commits."""

    def _restore_version(self, version: int) -> None:
        """Fast-forward ``data_version`` to ``version`` (recovery only).

        Versions are otherwise an in-memory counter; durable stores
        persist them (in WAL records and checkpoint metadata) so that
        version tokens handed to clients stay monotonic across process
        restarts.  Publishing at the restored version is a normal
        commit: one atomic reference swap.
        """
        with self._write_mutex:
            if version > self._version:
                self._version = version
                self._commit()

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------

    def create_model(
        self, name: str, index_specs: Sequence[str] = DEFAULT_INDEXES
    ) -> SemanticModel:
        with self._mutating():
            if name in self._models or name in self._virtual_models:
                raise StoreError(f"model {name!r} already exists")
            model = SemanticModel(name, index_specs)
            self._models[name] = model
            return model

    def create_virtual_model(
        self, name: str, member_names: Sequence[str], union_all: bool = False
    ) -> VirtualModel:
        with self._mutating():
            if name in self._models or name in self._virtual_models:
                raise StoreError(f"model {name!r} already exists")
            members = [self.model(member) for member in member_names]
            for member in members:
                if isinstance(member, VirtualModel):
                    raise StoreError(
                        "virtual models cannot nest virtual models"
                    )
            virtual = VirtualModel(name, members, union_all=union_all)
            self._virtual_models[name] = virtual
            return virtual

    def model(self, name: str) -> AnyModel:
        found: Optional[AnyModel] = self._models.get(name)
        if found is None:
            found = self._virtual_models.get(name)
        if found is None:
            raise StoreError(f"no such model: {name!r}")
        return found

    def drop_model(self, name: str) -> None:
        with self._mutating():
            if name in self._models:
                dependents = [
                    virtual.name
                    for virtual in self._virtual_models.values()
                    if name in virtual.member_names
                ]
                if dependents:
                    raise StoreError(
                        f"model {name!r} is used by virtual model(s) "
                        f"{dependents}"
                    )
                del self._models[name]
            elif name in self._virtual_models:
                del self._virtual_models[name]
            else:
                raise StoreError(f"no such model: {name!r}")

    @property
    def model_names(self) -> List[str]:
        return list(self._models)

    @property
    def virtual_model_names(self) -> List[str]:
        return list(self._virtual_models)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode_quad(self, quad: Quad) -> QuadIds:
        values = self.values
        graph_id = (
            DEFAULT_GRAPH_ID if quad.graph is None else values.get_or_add(quad.graph)
        )
        return (
            values.get_or_add(quad.subject),
            values.get_or_add(quad.predicate),
            values.get_or_add(quad.object),
            graph_id,
        )

    def encode_term(self, term: Term) -> int:
        return self.values.get_or_add(term)

    def lookup_term(self, term: Term) -> Optional[int]:
        return self.values.lookup(term)

    def decode_quad(self, quad_ids: QuadIds) -> Quad:
        subject_id, predicate_id, object_id, graph_id = quad_ids
        values = self.values
        return Quad(
            values.term(subject_id),
            values.term(predicate_id),
            values.term(object_id),
            values.term_or_none(graph_id),
        )

    # ------------------------------------------------------------------
    # Loading and DML
    # ------------------------------------------------------------------

    def bulk_load(self, model_name: str, quads: Iterable[Quad]) -> int:
        """Bulk load RDF quads into a model; returns quads added."""
        with self._mutating():
            model = self._require_base_model(model_name)
            encoded = [self.encode_quad(quad) for quad in quads]
            return model.bulk_load(encoded)

    def bulk_load_nquads(self, model_name: str, lines: Iterable[str]) -> int:
        """Bulk load from N-Quads text lines (the paper's load format)."""
        return self.bulk_load(model_name, parse_nquads(lines))

    def insert(self, model_name: str, quad: Quad) -> bool:
        with self._mutating():
            model = self._require_base_model(model_name)
            return model.insert(self.encode_quad(quad))

    def delete(self, model_name: str, quad: Quad) -> bool:
        with self._mutating():
            model = self._require_base_model(model_name)
            encoded = self._encode_existing(quad)
            if encoded is None:
                return False
            return model.delete(encoded)

    def clear_model(self, model_name: str, graph: Optional[Term] = None) -> int:
        """Remove every quad of a model (or just one named graph).

        Returns the number of quads removed.  This is the network-level
        form of SPARQL ``CLEAR``; routing it through the network (rather
        than poking the model) lets durable subclasses journal it.
        """
        with self._mutating():
            model = self._require_base_model(model_name)
            if graph is None:
                removed = len(model)
                model.clear()
                return removed
            graph_id = self.values.lookup(graph)
            if graph_id is None:
                return 0
            doomed = list(model.scan((None, None, None, graph_id)))
            for quad_ids in doomed:
                model.delete(quad_ids)
            return len(doomed)

    def contains(self, model_name: str, quad: Quad) -> bool:
        encoded = self._encode_existing(quad)
        if encoded is None:
            return False
        return encoded in self.model(model_name)

    def quads(self, model_name: str) -> Iterator[Quad]:
        """Iterate a model's contents as decoded RDF quads."""
        model = self.model(model_name)
        for quad_ids in model:
            yield self.decode_quad(quad_ids)

    def _require_base_model(self, name: str) -> SemanticModel:
        model = self.model(name)
        if isinstance(model, VirtualModel):
            raise StoreError(f"model {name!r} is virtual and read-only")
        return model

    def _encode_existing(self, quad: Quad) -> Optional[QuadIds]:
        """Encode without interning: None if any term was never stored."""
        lookup = self.values.lookup
        subject_id = lookup(quad.subject)
        predicate_id = lookup(quad.predicate)
        object_id = lookup(quad.object)
        if None in (subject_id, predicate_id, object_id):
            return None
        if quad.graph is None:
            graph_id: Optional[int] = DEFAULT_GRAPH_ID
        else:
            graph_id = lookup(quad.graph)
            if graph_id is None:
                return None
        return (subject_id, predicate_id, object_id, graph_id)
