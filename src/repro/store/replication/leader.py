"""The replication leader: stream WAL commit groups to followers.

Each accepted connection gets one sender thread that *tails the WAL
file itself* through :func:`repro.store.wal.read_wal_from` — the wire
carries exactly what the log fsynced, so nothing can be shipped that a
leader crash could un-happen (no acknowledged-write loss on failover).

Commit-group closure is inferred from the log plus the published
version: records are appended *before* a batch's version bump, so once
``network.data_version >= v`` every record of group ``v`` is on disk
and the group can be closed with a ``commit`` marker on the wire.
Markers are wire-only; the log format is untouched.

A follower whose cursor predates the current WAL generation (a
checkpoint truncated the log) or the retained sequence range is
bootstrapped inline: a consistent ``(snapshot, seq)`` pair is captured
under the write mutex and shipped as chunked N-Quads, then streaming
continues from that sequence.

Fencing: a ``hello`` carrying a higher epoch than ours means a
follower was promoted — this leader fences itself (stops streaming,
reports ``role=fenced``) rather than keep acknowledging writes that
the new leader's history will not contain.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional

from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.store.durable import DurableNetwork
from repro.store.wal import WalError, read_wal_from
from repro.store.replication import protocol as _proto
from repro.store.replication.protocol import MessageStream, ProtocolError


class _Session:
    """One connected follower, served by one sender thread."""

    def __init__(self, peer: str):
        self.peer = peer
        self.sent_seq = 0
        self.bootstrapped = False
        self.connected_at = time.monotonic()


class ReplicationLeader:
    """Accepts follower connections and streams the WAL to each."""

    def __init__(
        self,
        network: DurableNetwork,
        host: str = "127.0.0.1",
        port: int = 0,
        epoch: int = 0,
        heartbeat_interval: float = 0.5,
    ):
        self.network = network
        self.host = host
        self.port = port
        self.epoch = epoch
        self.heartbeat_interval = heartbeat_interval
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._sessions: Dict[int, _Session] = {}
        self._session_lock = threading.Lock()
        self._next_session = 0
        self._stop = threading.Event()
        self._fenced = threading.Event()
        #: Set by the store's WAL listener on append/commit/reset —
        #: wakes every sender out of its heartbeat wait promptly.
        self._wal_event = threading.Event()
        network.add_wal_listener(self._on_wal_event)

    # ------------------------------------------------------------------

    def start(self) -> "ReplicationLeader":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repl-leader-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._wal_event.set()
        self.network.remove_wal_listener(self._on_wal_event)
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does, so the join below is prompt.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._threads):
            thread.join(timeout=5.0)

    def fence(self) -> None:
        """Stop acting as a leader (a newer epoch exists)."""
        self._fenced.set()
        self._wal_event.set()
        if _obs.is_enabled():
            _obs.registry().inc("replication.fenced")

    @property
    def fenced(self) -> bool:
        return self._fenced.is_set()

    @property
    def address(self):
        return (self.host, self.port)

    def status(self) -> Dict:
        with self._session_lock:
            followers = [
                {
                    "peer": session.peer,
                    "sent_seq": session.sent_seq,
                    "bootstrapped": session.bootstrapped,
                    "connected_seconds": round(
                        time.monotonic() - session.connected_at, 3
                    ),
                }
                for session in self._sessions.values()
            ]
        return {
            "role": "fenced" if self.fenced else "leader",
            "epoch": self.epoch,
            "address": f"{self.host}:{self.port}",
            "applied_seq": self.network.applied_seq,
            "data_version": self.network.data_version,
            "followers": followers,
        }

    # ------------------------------------------------------------------

    def _on_wal_event(self, event: str) -> None:
        self._wal_event.set()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve,
                args=(conn, f"{addr[0]}:{addr[1]}"),
                name=f"repl-sender-{addr[1]}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, peer: str) -> None:
        stream = MessageStream(conn)
        session = _Session(peer)
        with self._session_lock:
            self._next_session += 1
            session_id = self._next_session
            self._sessions[session_id] = session
        if _obs.is_enabled():
            _obs.registry().inc("replication.sessions")
        try:
            stream.send_magic()
            stream.expect_magic()
            hello = stream.recv()
            if hello.get("type") != "hello":
                raise ProtocolError(f"expected hello, got {hello!r}")
            if hello.get("epoch", 0) > self.epoch:
                # A promoted follower exists: fence ourselves rather
                # than split-brain.
                self.fence()
                stream.send(
                    _proto.error_message(
                        f"fenced: peer epoch {hello['epoch']} > {self.epoch}",
                        fenced=True,
                    )
                )
                return
            if self.fenced:
                stream.send(
                    _proto.error_message("leader is fenced", fenced=True)
                )
                return
            self._stream_to_follower(stream, session, hello)
        except (ProtocolError, OSError, WalError):
            pass  # follower went away / stream unusable: end the session
        finally:
            with self._session_lock:
                self._sessions.pop(session_id, None)
            stream.close()

    # ------------------------------------------------------------------

    def _stream_to_follower(
        self, stream: MessageStream, session: _Session, hello: Dict
    ) -> None:
        network = self.network
        follower_seq = int(hello.get("applied_seq", 0))
        if (
            follower_seq < network.wal_base_seq
            or follower_seq > network.applied_seq
        ):
            # The WAL no longer retains (or never had) the records the
            # follower needs: ship a full snapshot, then stream on.
            stream.send(_proto.resync_message())
            follower_seq = self._send_bootstrap(stream, session)
        session.sent_seq = follower_seq
        self._pump_wal(stream, session)

    def _send_bootstrap(
        self, stream: MessageStream, session: _Session
    ) -> int:
        network = self.network
        with _trace.span("replication.bootstrap_send", peer=session.peer):
            # (snapshot, seq) must be one consistent cut: no batch may
            # commit between reading the two.
            with network._write_mutex:
                snap = network.snapshot()
                seq = network.applied_seq
            virtual_models = [
                {
                    "name": name,
                    "members": snap.model(name).member_names,
                    "union_all": snap.model(name).union_all,
                }
                for name in snap.virtual_model_names
            ]
            stream.send(
                _proto.snapshot_begin_message(
                    seq, snap.data_version, virtual_models
                )
            )
            from repro.rdf.nquads import serialize_nquads

            for name in snap.model_names:
                indexes = list(snap.model(name).index_specs)
                lines = [
                    serialize_nquads([quad]).strip()
                    for quad in snap.quads(name)
                ]
                first = True
                chunk_size = _proto.SNAPSHOT_CHUNK_LINES
                for start in range(0, max(len(lines), 1), chunk_size):
                    stream.send(
                        _proto.snapshot_data_message(
                            name,
                            indexes,
                            lines[start : start + chunk_size],
                            first,
                        )
                    )
                    first = False
            stream.send(_proto.snapshot_end_message())
        session.bootstrapped = True
        if _obs.is_enabled():
            _obs.registry().inc("replication.bootstraps_sent")
        return seq

    def _pump_wal(self, stream: MessageStream, session: _Session) -> None:
        """Tail the WAL file, shipping closed commit groups forever."""
        network = self.network
        generation = network.wal_generation
        cursor = 0
        pending: List[Dict] = []  # open group: records sharing one `v`
        while not self._stop.is_set():
            if self.fenced:
                stream.send(
                    _proto.error_message("leader is fenced", fenced=True)
                )
                return
            if network.wal_generation != generation:
                # Checkpoint reset the log.  If we had shipped
                # everything the truncated file held, the new file
                # continues seamlessly; otherwise the records we still
                # owed are gone — fall back to a snapshot.
                generation = network.wal_generation
                cursor = 0
                pending = []
                if session.sent_seq < network.wal_base_seq:
                    stream.send(_proto.resync_message())
                    session.sent_seq = self._send_bootstrap(stream, session)
                continue
            try:
                records, stats = read_wal_from(network.wal_path, cursor)
            except (WalError, OSError):
                # Racing a reset: re-check the generation next loop.
                time.sleep(0.01)
                continue
            if stats.corrupt_records:
                # The leader's own log is unreadable past this point —
                # fail the session rather than ship a guess.
                stream.send(
                    _proto.error_message("leader WAL corrupt mid-stream")
                )
                return
            cursor = stats.valid_bytes
            progressed = False
            for record in records:
                seq = record.get("seq", 0)
                if seq <= session.sent_seq:
                    continue  # follower already has it
                version = record.get("v", 0)
                if pending and pending[0].get("v", 0) != version:
                    self._flush_group(stream, session, pending)
                    progressed = True
                pending.append(record)
            # A trailing group is closed once its version published:
            # records are journaled before the bump, so seeing
            # data_version >= v proves the group is complete on disk.
            if pending and network.data_version >= pending[0].get("v", 0):
                self._flush_group(stream, session, pending)
                progressed = True
            if progressed:
                continue
            self._wal_event.clear()
            woke = self._wal_event.wait(timeout=self.heartbeat_interval)
            if not woke:
                stream.send(
                    _proto.heartbeat_message(
                        network.data_version, network.applied_seq
                    )
                )

    def _flush_group(
        self, stream: MessageStream, session: _Session, pending: List[Dict]
    ) -> None:
        version = pending[0].get("v", 0)
        last_seq = pending[-1].get("seq", 0)
        for record in pending:
            stream.send(_proto.frame_message(record))
        stream.send(_proto.commit_message(version, last_seq))
        session.sent_seq = last_seq
        pending.clear()
        if _obs.is_enabled():
            _obs.registry().inc("replication.groups_sent")
