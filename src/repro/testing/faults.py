"""Fault injection for crash-recovery testing.

Durability claims are only as good as the crashes they were tested
against.  This module provides the three ingredients the WAL property
tests use to simulate power loss at arbitrary points:

* :class:`FaultyFile` — wraps a real binary file and *tears* writes: it
  persists only the first N bytes given to it, then raises
  :class:`SimulatedCrash`.  Handing :func:`torn_file_factory` to
  :class:`~repro.store.wal.WriteAheadLog` simulates a crash mid-append
  at any byte offset, including inside a record header.
* :class:`CrashSchedule` — named crash points with hit budgets; code
  under test calls :meth:`CrashSchedule.reach` and the scheduled hit
  raises.  Deterministic, so a failing seed replays exactly.
* :func:`retry` — bounded retry with exponential backoff, for the
  *other* side of fault tolerance: operations that should survive
  transient failures.

For replication chaos, :class:`ChaosProxy` sits between a follower and
its leader as a TCP forwarder with scriptable faults: cut the wire,
tear a frame mid-byte, duplicate or delay delivery — the network-level
analogues of the torn-write file faults above.

Everything except the proxy is deliberately deterministic — no wall
clock, no randomness — so property-test shrinking produces stable
repros (the proxy's faults are triggered explicitly by the test, not
by chance).

The general-purpose backoff helpers live in :mod:`repro.util`
(:func:`repro.util.retry_with_backoff`, jittered and deadline-aware);
they are re-exported here so fault-tolerance tests find everything in
one toolbox.  The older deterministic :func:`retry` remains for tests
that assert an exact backoff sequence.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Type, TypeVar

from repro.util import (  # noqa: F401 — re-exported toolbox surface
    BackoffPolicy,
    RetryExhausted,
    retry_with_backoff,
)

T = TypeVar("T")


class SimulatedCrash(Exception):
    """An injected failure standing in for power loss / a kill -9.

    Raised by :class:`FaultyFile` when its byte budget runs out and by
    :class:`CrashSchedule` at a scheduled crash point.  Tests catch it
    where a real crash would have torn the process down, then exercise
    recovery on whatever reached "disk".
    """


class FaultyFile:
    """A binary file wrapper that tears writes after a byte budget.

    ``write`` persists at most ``fail_after_bytes`` bytes in total
    (across all calls); the write that crosses the budget persists its
    allowed prefix, flushes it, and raises :class:`SimulatedCrash` —
    exactly the on-disk state a crash mid-``write(2)`` leaves behind.
    With ``fail_fsync=True`` the failure is injected at the next
    ``fileno()`` call instead (which is how ``os.fsync`` reaches the
    file), modelling a device that accepts writes but fails to flush.
    """

    def __init__(
        self,
        handle,
        fail_after_bytes: Optional[int] = None,
        fail_fsync: bool = False,
    ):
        self._handle = handle
        self._budget = fail_after_bytes
        self._fail_fsync = fail_fsync
        #: Total bytes actually persisted through this wrapper.
        self.written = 0

    def write(self, data: bytes) -> int:
        if self._budget is None:
            self.written += len(data)
            return self._handle.write(data)
        if len(data) > self._budget:
            prefix = data[: self._budget]
            if prefix:
                self._handle.write(prefix)
                self.written += len(prefix)
            self._handle.flush()
            self._budget = 0
            raise SimulatedCrash(
                f"torn write: {len(prefix)} of {len(data)} bytes persisted"
            )
        self._budget -= len(data)
        self.written += len(data)
        return self._handle.write(data)

    def flush(self) -> None:
        self._handle.flush()

    def fileno(self) -> int:
        if self._fail_fsync:
            raise SimulatedCrash("fsync failure injected")
        return self._handle.fileno()

    def close(self) -> None:
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def torn_file_factory(
    fail_after_bytes: int, fail_fsync: bool = False
) -> Callable[[str], FaultyFile]:
    """A ``WriteAheadLog`` file factory that crashes after N bytes.

    The budget covers *everything* written through the returned file —
    including the 8-byte magic header on a fresh log — so sweeping
    ``fail_after_bytes`` over a range simulates a crash at every byte
    offset of the file.
    """

    def factory(path: str) -> FaultyFile:
        return FaultyFile(
            open(path, "ab"),
            fail_after_bytes=fail_after_bytes,
            fail_fsync=fail_fsync,
        )

    return factory


class CrashSchedule:
    """Deterministic named crash points.

    >>> schedule = CrashSchedule({"after-insert": 3})
    >>> schedule.reach("after-insert")  # 1st hit: fine
    >>> schedule.reach("after-insert")  # 2nd hit: fine
    >>> schedule.reach("after-insert")  # 3rd hit: raises SimulatedCrash

    Unknown points never fire, so production code paths can be
    instrumented unconditionally and only crash when a test arms them.
    """

    def __init__(self, crash_at: Optional[Dict[str, int]] = None):
        self._crash_at = dict(crash_at or {})
        self._hits: Dict[str, int] = {}

    def reach(self, point: str) -> None:
        """Record one hit of ``point``; raise if its budget is reached."""
        count = self._hits.get(point, 0) + 1
        self._hits[point] = count
        limit = self._crash_at.get(point)
        if limit is not None and count == limit:
            raise SimulatedCrash(f"crash point {point!r} (hit {count})")

    def arm(self, point: str, on_hit: int) -> None:
        """Schedule ``point`` to crash on its ``on_hit``-th hit."""
        self._crash_at[point] = on_hit

    def hits(self, point: str) -> int:
        return self._hits.get(point, 0)


def retry(
    fn: Callable[[], T],
    attempts: int = 3,
    base_delay: float = 0.01,
    max_delay: float = 1.0,
    exceptions: Tuple[Type[BaseException], ...] = (Exception,),
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` with exponential backoff; re-raise the last failure.

    The delay doubles per attempt (capped at ``max_delay``).  ``sleep``
    is injectable so tests can assert the backoff sequence without
    waiting for it.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    delay = base_delay
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except exceptions:
            if attempt == attempts:
                raise
            sleep(delay)
            delay = min(delay * 2, max_delay)
    raise AssertionError("unreachable")


class ChaosProxy:
    """A TCP forwarder with scriptable wire faults, for replication chaos.

    Sits between a follower and its leader::

        proxy = ChaosProxy(leader.address).start()
        follower = ReplicationFollower(net, *proxy.address).start()

    Faults are armed explicitly by the test (never by chance):

    * :meth:`cut` — sever every live connection (kill -9 of the wire);
      the follower must reconnect with backoff and resume by sequence.
    * :meth:`tear_next` — deliver only the first N bytes of the next
      leader-to-follower chunk, then sever: a torn frame mid-stream,
      which the CRC framing must turn into a reconnect, never a
      misparse.
    * :meth:`duplicate_next` — deliver the next chunk twice: raw-byte
      redelivery that desynchronizes the framing (CRC fail-stop);
      message-level duplication is exercised separately against
      ``apply_replicated``'s sequence-number dedup.

    Counters (`connections`, `tears`, `duplicates`) let tests assert
    the fault actually fired.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.upstream = upstream
        self.host = host
        self.port = port
        self.connections = 0
        self.tears = 0
        self.duplicates = 0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._pairs: List[Tuple[socket.socket, socket.socket]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._tear_next: Optional[int] = None
        self._duplicate_next = False

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
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
        self.cut()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._threads):
            thread.join(timeout=5.0)

    # -- fault controls -------------------------------------------------

    def cut(self) -> None:
        """Sever every live connection pair immediately."""
        with self._lock:
            pairs, self._pairs = self._pairs, []
        for downstream, upstream in pairs:
            for sock in (downstream, upstream):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def tear_next(self, keep_bytes: int) -> None:
        """Arm: truncate the next leader→follower chunk, then sever."""
        with self._lock:
            self._tear_next = keep_bytes

    def duplicate_next(self) -> None:
        """Arm: deliver the next leader→follower chunk twice."""
        with self._lock:
            self._duplicate_next = True

    # -- plumbing -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.upstream, timeout=5.0)
            except OSError:
                downstream.close()
                continue
            self.connections += 1
            with self._lock:
                self._pairs.append((downstream, upstream))
            for source, sink, faulty in (
                (downstream, upstream, False),  # follower -> leader
                (upstream, downstream, True),   # leader -> follower
            ):
                thread = threading.Thread(
                    target=self._pump,
                    args=(source, sink, faulty),
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def _pump(
        self, source: socket.socket, sink: socket.socket, faulty: bool
    ) -> None:
        while True:
            try:
                chunk = source.recv(65536)
            except OSError:
                chunk = b""
            if not chunk:
                for sock in (source, sink):
                    try:
                        sock.close()
                    except OSError:
                        pass
                return
            tear: Optional[int] = None
            duplicate = False
            if faulty:
                with self._lock:
                    if self._tear_next is not None:
                        tear, self._tear_next = self._tear_next, None
                    elif self._duplicate_next:
                        duplicate, self._duplicate_next = True, False
            try:
                if tear is not None:
                    self.tears += 1
                    if chunk[:tear]:
                        sink.sendall(chunk[:tear])
                    for sock in (source, sink):
                        try:
                            sock.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
                        sock.close()
                    return
                sink.sendall(chunk)
                if duplicate:
                    self.duplicates += 1
                    sink.sendall(chunk)
            except OSError:
                for sock in (source, sink):
                    try:
                        sock.close()
                    except OSError:
                        pass
                return
