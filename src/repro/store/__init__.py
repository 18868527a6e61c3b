"""An Oracle-style RDF quad store.

This package simulates the RDF Semantic Graph capabilities the paper
relies on (Section 3.1):

* a *values table* mapping lexical RDF terms to numeric IDs, with
  canonicalized objects,
* *semantic models* — independently queryable partitions of quads,
* *virtual models* defined as the UNION of existing models,
* *semantic network indexes* over any permutation of
  S (subject), P (predicate), C (canonical object), G (graph) and
  M (model), with index range scans and full index scans,
* bulk load of N-Quads data, and incremental DML.

Everything is ID-encoded: SPARQL evaluation (``repro.sparql``) runs on
integer quads and only decodes terms when producing results, mirroring
the paper's note that "all of these columns hold numeric identifiers,
not lexical values".
"""

from repro.store.values import ValuesTable, DEFAULT_GRAPH_ID
from repro.store.index import SemanticIndex, IndexSpecError
from repro.store.locking import LockTimeout, RWLock
from repro.store.model import SemanticModel
from repro.store.snapshot import NetworkSnapshot, SnapshotModel
from repro.store.virtual import VirtualModel
from repro.store.network import SemanticNetwork, StoreError
from repro.store.storage import StorageReport, storage_report
from repro.store.wal import WalError, WriteAheadLog, read_wal
from repro.store.durable import (
    DurableNetwork,
    RecoveryStats,
    open_durable,
    recover_network,
)

__all__ = [
    "ValuesTable",
    "DEFAULT_GRAPH_ID",
    "SemanticIndex",
    "IndexSpecError",
    "RWLock",
    "LockTimeout",
    "SemanticModel",
    "VirtualModel",
    "NetworkSnapshot",
    "SnapshotModel",
    "SemanticNetwork",
    "StoreError",
    "StorageReport",
    "storage_report",
    "WriteAheadLog",
    "WalError",
    "read_wal",
    "DurableNetwork",
    "RecoveryStats",
    "open_durable",
    "recover_network",
]
