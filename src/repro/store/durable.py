"""Crash-safe durability: WAL + checkpoint on top of the semantic network.

Layout of a durable store directory::

    <directory>/
        wal.log       append-only operation log (repro.store.wal format)
        checkpoint/   atomic save_network snapshot (may be absent)

:class:`DurableNetwork` is a :class:`~repro.store.SemanticNetwork`
whose mutating operations are journaled:

1. the operation is applied to the in-memory network (validating it —
   nothing invalid ever reaches the log);
2. the matching record is appended to the WAL and, under the default
   ``fsync="always"`` policy, fsynced;
3. only then does the call return — an *acknowledged* write is durable.

A crash at any point loses at most operations that were never
acknowledged.  :func:`recover_network` rebuilds the state: finish any
checkpoint swap a crash interrupted (see
:func:`repro.store.persist.repair_snapshot`), load the checkpoint (if
any), then replay every intact WAL record; a torn or checksum-corrupt
tail is detected and dropped (and the file truncated back to the last
intact boundary on reopen).  Replay is idempotent — re-creating an
existing model or re-inserting a present quad is a no-op — so the
crash window between writing a checkpoint and resetting the WAL is
harmless.

Durability failures are fail-stop: if a WAL append itself fails
(ENOSPC, I/O error), the failed operation's error propagates — it was
never acknowledged, even though it is applied in memory — and the log
is poisoned, so every later mutating call raises
:class:`~repro.store.wal.WalError` rather than acknowledging writes a
torn log cannot replay.  Reads keep working; reopening the directory
(recovery) restores service with exactly the committed prefix.

:meth:`DurableNetwork.checkpoint` takes the store's write lock, writes
an atomic snapshot (see :func:`repro.store.persist.save_network`), and
resets the WAL, bounding recovery time.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.rdf.quad import Quad
from repro.rdf.terms import Term
from repro.store import wal as _wal
from repro.store.model import DEFAULT_INDEXES, SemanticModel
from repro.store.network import SemanticNetwork, StoreError
from repro.store.persist import (
    MANIFEST_NAME,
    load_network,
    read_manifest_meta,
    repair_snapshot,
    save_network,
)
from repro.store.virtual import VirtualModel
from repro.store.wal import WAL_MAGIC, WriteAheadLog, read_wal, truncate_wal

WAL_NAME = "wal.log"
CHECKPOINT_NAME = "checkpoint"


class ReplicationSequenceError(StoreError):
    """A replicated record arrived out of sequence (gap or regression).

    Raised by :meth:`DurableNetwork.apply_replicated` when a commit
    group's records do not continue the store's applied sequence —
    reordered or dropped delivery.  Followers treat it as fail-stop for
    the session: drop the buffered group, reconnect, and resume from
    the last durably-applied sequence number.  Never applied silently.
    """


class RecoveryStats:
    """What a recovery found and did (also published as metrics)."""

    __slots__ = (
        "checkpoint_loaded",
        "wal_records",
        "applied",
        "skipped",
        "errors",
        "torn_bytes",
        "corrupt_records",
        "wal_valid_bytes",
        "base_seq",
        "applied_seq",
        "restored_version",
    )

    def __init__(self):
        self.checkpoint_loaded = False
        self.wal_records = 0
        self.applied = 0
        #: Records replayed as no-ops (idempotent duplicates).
        self.skipped = 0
        #: Records that could not be applied (e.g. a hand-edited log
        #: referencing a model that never existed).
        self.errors = 0
        self.torn_bytes = 0
        self.corrupt_records = 0
        #: Truncation point for reopening the WAL at a record boundary.
        self.wal_valid_bytes = 0
        #: Sequence number already reflected in the loaded checkpoint
        #: (records at or below it are skipped, not re-applied).
        self.base_seq = 0
        #: Highest durably-applied sequence number — where replication
        #: resumes from.
        self.applied_seq = 0
        #: Highest committed ``data_version`` recorded in the
        #: checkpoint metadata or the replayed records (0 = unknown).
        self.restored_version = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def publish(self) -> None:
        """Surface the recovery outcome through the metrics registry."""
        if not _obs.is_enabled():
            return
        registry = _obs.registry()
        registry.inc("recovery.runs")
        registry.inc("recovery.records_replayed", self.wal_records)
        registry.inc("recovery.operations_applied", self.applied)
        registry.inc("recovery.torn_bytes", self.torn_bytes)
        registry.inc("recovery.corrupt_records", self.corrupt_records)
        if self.checkpoint_loaded:
            registry.inc("recovery.checkpoints_loaded")
        # Gauges carry the *last* recovery's outcome (counters above
        # accumulate across runs) — what ``/metrics`` scrapers alert on.
        registry.set_gauge("wal.failed", 0)
        registry.set_gauge("wal.replayed_records", self.wal_records)
        registry.set_gauge("wal.truncated_bytes", self.torn_bytes)

    def __repr__(self) -> str:
        return f"RecoveryStats({self.to_dict()})"


def recover_network(
    directory: str, into: Optional[SemanticNetwork] = None
) -> Tuple[SemanticNetwork, RecoveryStats]:
    """Rebuild the store state of a durable directory.

    Loads ``checkpoint/`` when present, then replays the intact prefix
    of ``wal.log``.  Returns ``(network, stats)``; never raises on torn
    or corrupt tails — those are what recovery exists to absorb.
    """
    network = into if into is not None else SemanticNetwork()
    stats = RecoveryStats()
    with _trace.span("store.recover", directory=directory):
        # One write batch: replay publishes a single committed snapshot
        # at the end instead of one per record.
        with network.write_batch():
            _recover_into(directory, network, stats)
        # Versions are persisted (checkpoint meta + per-record stamps)
        # so client-visible version tokens stay monotonic across
        # restarts; fast-forward the in-memory counter to match.
        if stats.restored_version > network.data_version:
            network._restore_version(stats.restored_version)
    stats.publish()
    return network, stats


def _recover_into(
    directory: str, network: SemanticNetwork, stats: RecoveryStats
) -> None:
    checkpoint_dir = os.path.join(directory, CHECKPOINT_NAME)
    # A crash mid-checkpoint-swap can leave the snapshot under the
    # well-known .new/.old sibling names instead of checkpoint/ itself;
    # finish the swap (and sweep staging leftovers) before loading.
    if os.path.isdir(directory):
        repair_snapshot(checkpoint_dir)
    if os.path.exists(os.path.join(checkpoint_dir, MANIFEST_NAME)):
        load_network(checkpoint_dir, into=network)
        stats.checkpoint_loaded = True
        meta = read_manifest_meta(checkpoint_dir)
        stats.base_seq = int(meta.get("base_seq", 0))
        stats.restored_version = int(meta.get("version", 0))
    stats.applied_seq = stats.base_seq
    wal_path = os.path.join(directory, WAL_NAME)
    if os.path.exists(wal_path):
        records, read_stats = read_wal(wal_path)
        stats.wal_records = read_stats.records
        stats.torn_bytes = read_stats.torn_bytes
        stats.corrupt_records = read_stats.corrupt_records
        stats.wal_valid_bytes = read_stats.valid_bytes
        for record in records:
            seq = record.get("seq")
            if seq is not None:
                if seq <= stats.base_seq:
                    # Already reflected in the checkpoint (the crash
                    # window between writing a checkpoint and resetting
                    # the WAL) — skipping by sequence number is exact,
                    # where idempotent replay was merely harmless.
                    stats.skipped += 1
                    continue
                stats.applied_seq = max(stats.applied_seq, seq)
            version = record.get("v")
            if version is not None:
                stats.restored_version = max(stats.restored_version, version)
            try:
                applied = _apply_record(network, record)
            except StoreError:
                stats.errors += 1
                continue
            if applied:
                stats.applied += 1
            else:
                stats.skipped += 1


def _apply_record(network: SemanticNetwork, record: Dict) -> bool:
    """Replay one WAL record idempotently; True when it changed state."""
    op = record["op"]
    if op == "create_model":
        if record["name"] in network.model_names or (
            record["name"] in network.virtual_model_names
        ):
            return False  # duplicate replay (checkpoint overlap)
        network.create_model(record["name"], record["indexes"])
        return True
    if op == "create_virtual_model":
        if record["name"] in network.model_names or (
            record["name"] in network.virtual_model_names
        ):
            return False
        network.create_virtual_model(
            record["name"], record["members"],
            union_all=record.get("union_all", False),
        )
        return True
    if op == "drop_model":
        if record["name"] not in network.model_names and (
            record["name"] not in network.virtual_model_names
        ):
            return False
        network.drop_model(record["name"])
        return True
    if op == "insert":
        return network.insert(record["model"], _wal.line_to_quad(record["quad"]))
    if op == "delete":
        return network.delete(record["model"], _wal.line_to_quad(record["quad"]))
    if op == "bulk_load":
        added = network.bulk_load(
            record["model"],
            (_wal.line_to_quad(line) for line in record["quads"]),
        )
        return added > 0
    if op == "clear":
        removed = network.clear_model(
            record["model"], _wal.text_to_term(record.get("graph"))
        )
        return removed > 0
    if op == "noop":
        return False  # a record-less version bump; nothing to re-apply
    raise StoreError(f"unknown WAL record op {op!r}")


class DurableNetwork(SemanticNetwork):
    """A semantic network journaled to a WAL, with atomic checkpoints.

    Opening the directory *is* recovery: the constructor loads the last
    checkpoint, replays the WAL's intact prefix, truncates any torn
    tail, and reopens the log for appending.  The outcome is available
    as :attr:`recovery_stats`.
    """

    def __init__(
        self,
        directory: str,
        fsync: str = "always",
        file_factory: Optional[Callable[[str], object]] = None,
    ):
        super().__init__()
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._wal: Optional[WriteAheadLog] = None  # None while recovering
        self._file_factory = file_factory
        #: True while applying replicated/recovered records: journaled
        #: overrides must not re-stamp and re-append them.
        self._suspend_log = False
        #: Did the current outermost batch journal at least one record?
        #: If not, ``_about_to_commit`` journals a noop so every
        #: committed version has a WAL record (version lockstep).
        self._dirty_batch = False
        #: Replication senders and tests; called as listener(event)
        #: with "append" (a record hit the WAL), "commit" (a snapshot
        #: was published) or "reset" (the WAL was truncated —
        #: generation bumped, senders must re-handshake or resync).
        self._wal_listeners: List[Callable[[str], None]] = []
        self._next_seq = 0
        self._wal_base_seq = 0
        #: Bumped on every ``_reset_wal`` — a tailing cursor is only
        #: valid within one generation of the log file.
        self._wal_generation = 0
        wal_path = os.path.join(self.directory, WAL_NAME)
        _, self.recovery_stats = recover_network(self.directory, into=self)
        self._next_seq = self.recovery_stats.applied_seq
        self._wal_base_seq = self.recovery_stats.base_seq
        if os.path.exists(wal_path) and (
            self.recovery_stats.torn_bytes
            or self.recovery_stats.corrupt_records
        ):
            truncate_wal(wal_path, self.recovery_stats.wal_valid_bytes)
        self._wal = WriteAheadLog(
            wal_path, fsync=fsync, file_factory=file_factory
        )

    # ------------------------------------------------------------------
    # Journaled operations: apply (validates), then log, then return.
    # ------------------------------------------------------------------

    def create_model(
        self, name: str, index_specs: Sequence[str] = DEFAULT_INDEXES
    ) -> SemanticModel:
        # Apply + journal inside one mutating bracket: the record is
        # appended *before* the outermost commit bumps the version, so
        # the stamped target version (`v`) is exact and the commit hook
        # can see whether the batch journaled anything.  Same pattern
        # for every journaled operation below.
        with self._mutating():
            model = super().create_model(name, index_specs)
            self._log(_wal.create_model_record(name, model.index_specs))
            return model

    def create_virtual_model(
        self, name: str, member_names: Sequence[str], union_all: bool = False
    ) -> VirtualModel:
        with self._mutating():
            virtual = super().create_virtual_model(
                name, member_names, union_all
            )
            self._log(
                _wal.create_virtual_model_record(
                    name, virtual.member_names, virtual.union_all
                )
            )
            return virtual

    def drop_model(self, name: str) -> None:
        with self._mutating():
            super().drop_model(name)
            self._log(_wal.drop_model_record(name))

    def insert(self, model_name: str, quad: Quad) -> bool:
        with self._mutating():
            added = super().insert(model_name, quad)
            if added:
                self._log(_wal.insert_record(model_name, quad))
            return added

    def delete(self, model_name: str, quad: Quad) -> bool:
        with self._mutating():
            removed = super().delete(model_name, quad)
            if removed:
                self._log(_wal.delete_record(model_name, quad))
            return removed

    def bulk_load(self, model_name: str, quads: Iterable[Quad]) -> int:
        with self._mutating():
            materialized = list(quads)
            added = super().bulk_load(model_name, materialized)
            if materialized:
                self._log(_wal.bulk_load_record(model_name, materialized))
            return added

    def clear_model(self, model_name: str, graph: Optional[Term] = None) -> int:
        with self._mutating():
            removed = super().clear_model(model_name, graph)
            self._log(_wal.clear_record(model_name, graph))
            return removed

    # ------------------------------------------------------------------
    # Checkpointing and lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, int]:
        """Write an atomic snapshot and reset the WAL.

        Writers are excluded (the store's write lock plus the MVCC
        write mutex) so the captured snapshot is a consistent cut and
        no append can slip between the snapshot and the log reset.
        Readers are *not* excluded: queries keep running against their
        pinned MVCC snapshots for the whole checkpoint — the files are
        written from an immutable
        :class:`~repro.store.snapshot.NetworkSnapshot`, never from
        mutable state.
        """
        with _trace.span("store.checkpoint"):
            with self.lock.write_locked():
                with self._write_mutex:
                    snap = self.snapshot()
                    counts = save_network(
                        snap,
                        os.path.join(self.directory, CHECKPOINT_NAME),
                        meta={
                            "base_seq": self._next_seq,
                            "version": snap.data_version,
                        },
                    )
                    self._reset_wal()
        if _obs.is_enabled():
            _obs.registry().inc("wal.checkpoints")
        return counts

    def _reset_wal(self) -> None:
        wal = self._wal
        path = os.path.join(self.directory, WAL_NAME)
        fsync = wal.fsync_policy if wal is not None else "always"
        if wal is not None:
            wal.close()
        truncate_wal(path, len(WAL_MAGIC))
        self._wal = WriteAheadLog(
            path, fsync=fsync, file_factory=self._file_factory
        )
        self._wal_generation += 1
        self._wal_base_seq = self._next_seq
        self._notify_wal("reset")

    def sync(self) -> None:
        """Force buffered WAL records to disk (``fsync='batch'``)."""
        if self._wal is not None:
            self._wal.sync()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "DurableNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    @property
    def wal_failed(self) -> bool:
        """True once the WAL is poisoned (``/healthz`` turns 503)."""
        return self._wal is not None and self._wal.failed

    @property
    def applied_seq(self) -> int:
        """Highest durably-applied WAL sequence number.

        The replication cursor: followers resume streaming from here
        after a reconnect, and checkpoints record it as ``base_seq`` so
        recovery skips already-absorbed records exactly.
        """
        return self._next_seq

    @property
    def wal_base_seq(self) -> int:
        """Sequence number already folded into the last checkpoint —
        the current WAL file holds only records above this."""
        return self._wal_base_seq

    @property
    def wal_generation(self) -> int:
        """Bumped whenever the WAL file is reset (checkpoint/bootstrap).
        A tailing byte cursor is only valid within one generation."""
        return self._wal_generation

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, WAL_NAME)

    def _log(self, record: Dict) -> None:
        if self._wal is None or self._suspend_log:
            return
        record = dict(record)
        self._next_seq += 1
        record["seq"] = self._next_seq
        # _log always runs inside a mutating bracket, before the
        # outermost exit bumps the version — so this batch commits at
        # exactly _version + 1.
        record["v"] = self._version + 1
        # Mark the batch dirty *before* appending: if the append fails
        # (poisoned log) the commit hook must not try to journal a noop
        # on top of it.
        self._dirty_batch = True
        with _trace.span("store.log", op=record.get("op")):
            self._wal.append(record)
        self._notify_wal("append")

    def _about_to_commit(self) -> None:
        """Journal a noop for record-less outermost batches.

        Every committed ``data_version`` then has at least one WAL
        record, which keeps replication followers in version lockstep
        and lets recovery restore the version counter exactly.
        """
        dirty, self._dirty_batch = self._dirty_batch, False
        if dirty or self._wal is None or self._suspend_log:
            return
        if self._wal.failed:
            return
        record = _wal.noop_record()
        self._next_seq += 1
        record["seq"] = self._next_seq
        record["v"] = self._version  # already bumped at this point
        try:
            self._wal.append(record)
        except Exception:
            # Best-effort: the batch changed nothing, so losing its
            # version bump is safe, and this hook runs in a finally —
            # raising here would mask the batch's own outcome.
            return
        self._notify_wal("append")

    def _committed(self) -> None:
        self._notify_wal("commit")

    # ------------------------------------------------------------------
    # Replication hooks: WAL listeners, replicated apply, bootstrap.
    # ------------------------------------------------------------------

    def add_wal_listener(self, listener: Callable[[str], None]) -> None:
        """Register ``listener(event)`` for WAL lifecycle events:
        ``"append"`` (a record hit the log), ``"commit"`` (a snapshot
        published), ``"reset"`` (the log was truncated — byte cursors
        are invalid, re-check :attr:`wal_generation`).  Called with
        store locks held: listeners must only signal, never block."""
        self._wal_listeners.append(listener)

    def remove_wal_listener(self, listener: Callable[[str], None]) -> None:
        try:
            self._wal_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_wal(self, event: str) -> None:
        for listener in list(self._wal_listeners):
            try:
                listener(event)
            except Exception:
                pass  # a broken listener must not poison writes

    def apply_replicated(self, records: Sequence[Dict], version: int) -> int:
        """Apply one leader commit group verbatim; returns records applied.

        ``records`` are WAL records exactly as the leader journaled
        them (``seq``/``v`` stamps included); ``version`` is the
        ``data_version`` the leader published when the group committed.
        The whole group is applied as one write batch and published at
        exactly ``version`` — version tokens are portable between
        leader and follower.

        Delivery faults are handled here, not upstream:

        * records with ``seq`` at or below :attr:`applied_seq` are
          duplicates (redelivery) and are skipped exactly;
        * a gap in the sequence raises
          :class:`ReplicationSequenceError` — fail-stop, never silent
          divergence; the follower drops the group and resyncs.
        """
        if not records:
            raise ReplicationSequenceError("empty replicated commit group")
        if self._wal is None:
            raise StoreError("store is closed")
        applied = 0
        with self._write_mutex:
            fresh = [
                record for record in records
                if record.get("seq", 0) > self._next_seq
            ]
            if not fresh:
                return 0  # whole group already applied (redelivery)
            # Logging stays suspended through the batch exit: a group
            # that fails midway must not journal a follower-local noop,
            # whose seq would shadow the leader's next record and make
            # its redelivery look like a duplicate (silent divergence).
            self._suspend_log = True
            try:
                with self.write_batch():
                    for record in fresh:
                        seq = record.get("seq")
                        if seq != self._next_seq + 1:
                            raise ReplicationSequenceError(
                                f"replicated record seq {seq!r} does not "
                                f"continue applied seq {self._next_seq}"
                            )
                        _apply_record(self, record)
                        self._wal.append(record)  # verbatim, stamps kept
                        self._next_seq = seq
                        applied += 1
                    # Publish at exactly the leader's version: batch exit
                    # bumps by one, so park the counter just below it.
                    self._version = version - 1
            finally:
                self._suspend_log = False
            self._notify_wal("append")
        return applied

    def install_bootstrap(
        self,
        seq: int,
        version: int,
        models: Sequence[Dict],
        virtual_models: Sequence[Dict],
    ) -> None:
        """Replace the entire store state with a leader snapshot.

        ``models`` is a list of ``{"name", "indexes", "lines"}`` (lines
        in N-Quads syntax); ``virtual_models`` of ``{"name", "members",
        "union_all"}``.  The new state is made durable as a checkpoint
        whose metadata records ``base_seq=seq`` / ``version``, and the
        WAL restarts empty.  The WAL is truncated *before* the
        checkpoint is written: a crash in between regresses to the old
        checkpoint (a safe resync), never replays the old log on top of
        the new state.
        """
        with _trace.span("replication.bootstrap", seq=seq, version=version):
            with self.lock.write_locked():
                with self._write_mutex:
                    self._suspend_log = True
                    try:
                        with self.write_batch():
                            for name in list(self.virtual_model_names):
                                SemanticNetwork.drop_model(self, name)
                            for name in list(self.model_names):
                                SemanticNetwork.drop_model(self, name)
                            for spec in models:
                                SemanticNetwork.create_model(
                                    self, spec["name"], spec["indexes"]
                                )
                                if spec.get("lines"):
                                    SemanticNetwork.bulk_load_nquads(
                                        self, spec["name"], spec["lines"]
                                    )
                            for spec in virtual_models:
                                SemanticNetwork.create_virtual_model(
                                    self,
                                    spec["name"],
                                    spec["members"],
                                    union_all=spec.get("union_all", False),
                                )
                            self._dirty_batch = True  # no noop record
                            self._version = version - 1
                    finally:
                        self._suspend_log = False
                    self._reset_wal()
                    save_network(
                        self.snapshot(),
                        os.path.join(self.directory, CHECKPOINT_NAME),
                        meta={"base_seq": seq, "version": version},
                    )
                    self._next_seq = seq
                    self._wal_base_seq = seq
        if _obs.is_enabled():
            _obs.registry().inc("replication.bootstraps")


def open_durable(
    directory: str,
    fsync: str = "always",
    file_factory: Optional[Callable[[str], object]] = None,
) -> DurableNetwork:
    """Open (creating or recovering) a durable store directory."""
    return DurableNetwork(directory, fsync=fsync, file_factory=file_factory)
