"""Immutable point-in-time views of the semantic network (MVCC reads).

Oracle answers SPARQL queries concurrently with DML because every
query runs against a consistent snapshot of the data.  This module is
our reproduction of that contract: a :class:`NetworkSnapshot` is an
immutable view of one committed ``data_version``, captured in O(1) by
sharing the store's copy-on-write index arrays (see
:meth:`repro.store.index.SemanticIndex.view`) and the append-only
values table.

Capture protocol (the writer side lives in
:meth:`repro.store.network.SemanticNetwork._commit`):

1. a writer applies its mutation(s) while holding the network's write
   mutex — readers never touch that mutex;
2. at commit it *publishes*: every mutated index's pages are frozen
   (``SemanticIndex.publish``) and a fresh ``NetworkSnapshot`` carrying
   the new ``data_version`` is swapped into
   ``SemanticNetwork._published`` with a single reference assignment;
3. the next mutation thaws a private copy of just the page it touches
   (the ``store.cow_copy_seconds`` timer measures those copies), so
   every snapshot keeps scanning exactly the frozen pages it captured.

Readers call :meth:`repro.store.network.SemanticNetwork.snapshot`,
which is one attribute read — no lock, no copy, no waiting behind
writers.  A pinned snapshot stays valid across any later DML,
``drop_model`` or checkpoint; it is reclaimed by the garbage collector
as soon as the last query holding it finishes (the network tracks the
live set through weak references — the ``snapshot.versions_live``
gauge).
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Union

from repro.rdf.quad import Quad
from repro.store.index import QuadIds, SemanticIndex
from repro.store.model import IndexReads
from repro.store.values import ValuesTable
from repro.store.virtual import VirtualModel


class SnapshotModel(IndexReads):
    """A read-only view of one semantic model at a fixed version.

    Every read — ``scan`` / ``estimate`` / ``choose_index``, and
    length, membership and iteration — is the
    :class:`~repro.store.model.IndexReads` code a live
    :class:`~repro.store.model.SemanticModel` runs, over frozen index
    views.  Indexes are a model's only copy of its quads, so capture
    cost is O(#indexes), not O(#quads).
    """

    __slots__ = ("name", "_indexes")

    def __init__(self, name: str, indexes: Dict[str, SemanticIndex]):
        self.name = name
        self._indexes = indexes

    def __repr__(self) -> str:
        return f"SnapshotModel({self.name!r}, quads={len(self)})"


AnySnapshotModel = Union[SnapshotModel, VirtualModel]


class NetworkSnapshot:
    """One committed version of the whole network, immutable.

    Presents the read-side surface of
    :class:`~repro.store.network.SemanticNetwork` — ``model()``,
    ``values``, term lookup/decoding, ``quads()`` — so the SPARQL
    compiler, the executor and ``save_network`` can all run against a
    snapshot exactly as they would against the live store.

    The values table is shared with the live network: it is append-only,
    so an ID captured at this version decodes identically forever, and
    terms interned *after* the capture simply match nothing in the
    frozen indexes.  ``encode_term`` therefore still interns (queries
    may encode constant terms concurrently with writers — interning is
    serialized inside :class:`~repro.store.values.ValuesTable`).
    """

    # No __slots__: the network tracks live snapshots via weakrefs.

    def __init__(
        self,
        data_version: int,
        values: ValuesTable,
        models: Dict[str, SnapshotModel],
        virtual_models: Dict[str, VirtualModel],
    ):
        self.data_version = data_version
        self.values = values
        self._models = models
        self._virtual_models = virtual_models
        #: Monotonic capture timestamp — the ``snapshot.age`` gauge.
        self.captured_at = time.monotonic()

    # -- model access (same surface as SemanticNetwork) -----------------

    def model(self, name: str) -> AnySnapshotModel:
        found: Optional[AnySnapshotModel] = self._models.get(name)
        if found is None:
            found = self._virtual_models.get(name)
        if found is None:
            from repro.store.network import StoreError

            raise StoreError(f"no such model: {name!r}")
        return found

    @property
    def model_names(self) -> List[str]:
        return list(self._models)

    @property
    def virtual_model_names(self) -> List[str]:
        return list(self._virtual_models)

    # -- term encoding ---------------------------------------------------

    def encode_term(self, term) -> int:
        return self.values.get_or_add(term)

    def lookup_term(self, term) -> Optional[int]:
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

    def quads(self, model_name: str) -> Iterator[Quad]:
        """Iterate a model's contents at this version, decoded."""
        model = self.model(model_name)
        for quad_ids in model:
            yield self.decode_quad(quad_ids)

    def age(self) -> float:
        """Seconds since this snapshot was captured."""
        return max(0.0, time.monotonic() - self.captured_at)

    def __repr__(self) -> str:
        return (
            f"NetworkSnapshot(version={self.data_version}, "
            f"models={list(self._models)})"
        )


def capture_snapshot(network) -> NetworkSnapshot:
    """Build an immutable snapshot of ``network``'s current state.

    Must be called with the network's write mutex held (writers are
    serialized, readers never enter here): the capture freezes every
    index's key array via :meth:`SemanticIndex.publish`, which is only
    safe while no mutation is in flight.
    """
    models: Dict[str, SnapshotModel] = {}
    for name, model in network._models.items():
        views = {
            spec: model.index(spec).view() for spec in model.index_specs
        }
        models[name] = SnapshotModel(name, views)
    virtual_models: Dict[str, VirtualModel] = {}
    for name, virtual in network._virtual_models.items():
        members = [models[member] for member in virtual.member_names]
        virtual_models[name] = VirtualModel(
            name, members, union_all=virtual.union_all
        )
    return NetworkSnapshot(
        network._version, network.values, models, virtual_models
    )
