"""A minimal SPARQL Protocol HTTP endpoint (stdlib only).

Serves a :class:`~repro.sparql.SparqlEngine` over HTTP following the
SPARQL 1.1 Protocol's core: ``GET /sparql?query=...`` and
``POST /sparql`` (form-encoded or ``application/sparql-query``) —
mirrored by ``/pgql`` for the PGQL front-end (``application/pgql-query``
bodies, same gating/timeout/staleness contract) — with
JSON or CSV results by content negotiation.  Updates go to
``POST /update``.  This is the "publish transformed property graph data
as linked data" delivery mechanism the paper motivates.

The endpoint is threaded (one handler thread per connection); reads
run concurrently as lock-free MVCC snapshot reads (each query pins one
committed ``data_version``) while updates are serialized.  Guard rails
keep a misbehaving client from taking the service down:

* a per-request deadline (``timeout=``) — a query (or an update's
  WHERE evaluation / write-lock wait) past its budget is aborted
  cooperatively and answered with ``503`` and a JSON ``QueryTimeout``
  payload, leaving the store untouched;
* a bounded in-flight gate (``max_inflight=``) — excess concurrent
  requests are rejected immediately with ``429`` instead of queueing
  without bound;
* a request body cap (``max_body_bytes=``) — oversized posts get
  ``413`` before the body is read into memory;
* an optional bounded worker pool (``workers=``) — query/update
  execution is dispatched to a fixed set of worker threads behind a
  bounded backpressure queue (``max_queue=``), so CPU-bound work is
  capped at N threads no matter how many connections arrive; a full
  queue answers ``429`` immediately (depth is the
  ``server.queue_depth`` gauge).

Intended for local use and tests; not hardened for the open internet.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from urllib.parse import parse_qs, urlparse

from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.obs.log import access_logger
from repro.obs.prometheus import CONTENT_TYPE as _PROMETHEUS_TYPE
from repro.obs.prometheus import render_prometheus
from repro.sparql import QueryTimeout, SparqlEngine, SparqlError
from repro.sparql.results import SelectResult
from repro.sparql.serialize import ask_to_json, to_csv, to_json

#: Default request body cap (10 MiB) — generous for hand-written
#: updates, small enough that a runaway client cannot balloon memory.
DEFAULT_MAX_BODY_BYTES = 10 * 1024 * 1024


class _HttpError(Exception):
    """Internal: unwinds request handling into one error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class InflightGate:
    """Bounded admission: at most ``limit`` requests execute at once.

    Cheaper than a queue and with better failure behaviour: when the
    server is saturated the client learns immediately (HTTP 429) rather
    than waiting on an unbounded backlog.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("max_inflight must be >= 1")
        self.limit = limit
        self._semaphore = threading.BoundedSemaphore(limit)
        self._count_lock = threading.Lock()
        self._in_use = 0

    @property
    def in_use(self) -> int:
        with self._count_lock:
            return self._in_use

    def try_acquire(self) -> bool:
        if not self._semaphore.acquire(blocking=False):
            return False
        with self._count_lock:
            self._in_use += 1
        return True

    def release(self) -> None:
        with self._count_lock:
            self._in_use -= 1
        self._semaphore.release()


class PoolSaturated(Exception):
    """Raised by :meth:`WorkerPool.submit` when the queue is full."""


class _PoolJob:
    """One unit of work submitted to the pool.

    Carries the submitting thread's active trace (and current span) so
    the worker can attach to it — without this, spans emitted by the
    query would land in no trace at all because the trace context is
    thread-local.
    """

    __slots__ = ("fn", "args", "trace", "parent", "result", "error", "_done")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args
        self.trace = _trace.current_trace()
        self.parent = _trace.current_span()
        self.result = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()

    def run(self) -> None:
        try:
            if self.trace is not None:
                with _trace.attached(self.trace, self.parent):
                    self.result = self.fn(*self.args)
            else:
                self.result = self.fn(*self.args)
        except BaseException as exc:  # noqa: BLE001 — re-raised in wait()
            self.error = exc
        finally:
            self._done.set()

    def wait(self):
        """Block until the job ran; re-raise its exception, if any."""
        self._done.wait()
        if self.error is not None:
            raise self.error
        return self.result


class WorkerPool:
    """A fixed set of worker threads behind a bounded submission queue.

    The HTTP layer accepts connections on per-connection threads, but
    query *execution* is CPU-bound; dispatching it through the pool
    caps concurrent execution at ``workers`` threads and turns overload
    into immediate backpressure: :meth:`submit` raises
    :class:`PoolSaturated` (mapped to HTTP 429) the moment the bounded
    queue is full, instead of letting a request backlog grow without
    bound.  Queue depth is exported as the ``server.queue_depth``
    gauge.
    """

    def __init__(self, workers: int, max_queue: Optional[int] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        #: Backpressure bound: jobs waiting for a worker (submitted but
        #: not yet picked up).  Defaults to 2× the worker count.
        self.max_queue = 2 * workers if max_queue is None else max_queue
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._queue: "queue.Queue[Optional[_PoolJob]]" = queue.Queue(
            maxsize=self.max_queue
        )
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._run, name=f"sparql-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def queue_depth(self) -> int:
        """Jobs submitted but not yet picked up by a worker."""
        return self._queue.qsize()

    def _publish_depth(self) -> None:
        if _obs.is_enabled():
            _obs.registry().set_gauge("server.queue_depth", self.queue_depth)

    def submit(self, fn, *args) -> _PoolJob:
        """Enqueue ``fn(*args)``; raises :class:`PoolSaturated` if full."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        job = _PoolJob(fn, args)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            raise PoolSaturated(
                f"worker queue is at its {self.max_queue}-request capacity"
            ) from None
        self._publish_depth()
        return job

    def execute(self, fn, *args):
        """Submit and wait — the handler-thread convenience wrapper."""
        return self.submit(fn, *args).wait()

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop accepting work and join the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)  # one sentinel per worker
        for thread in self._threads:
            thread.join(timeout=join_timeout)

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._publish_depth()
            job.run()


class RequestCounter:
    """Counts requests currently being handled (the /healthz number).

    Unlike the optional :class:`InflightGate`, this counter always
    exists and covers *every* request, including the observability
    endpoints the gate never sees.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def __enter__(self) -> "RequestCounter":
        with self._lock:
            self._count += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._count -= 1

    @property
    def value(self) -> int:
        with self._lock:
            return self._count


class SparqlRequestHandler(BaseHTTPRequestHandler):
    """Handles /sparql (query), /pgql (PGQL front-end) and /update
    (update) requests, plus the observability endpoints /metrics,
    /healthz and /trace/<id>."""

    engine: SparqlEngine = None  # injected by make_server
    allow_updates: bool = False
    #: Per-request query deadline in seconds (None = no deadline).
    #: Named distinctly from BaseHTTPRequestHandler.timeout, which is
    #: the *socket* timeout.
    query_timeout: Optional[float] = None
    #: Reject request bodies larger than this many bytes with 413.
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: Optional InflightGate bounding concurrent requests (429 beyond).
    gate: Optional[InflightGate] = None
    #: Optional WorkerPool executing query/update work off the
    #: connection threads (429 when its bounded queue is full).
    pool: Optional[WorkerPool] = None
    #: When True every request runs under a span trace (also triggered
    #: by the process-wide ``repro.obs.trace.enable()`` flag).
    trace_requests: bool = False
    #: Ring buffer of recently completed request traces (/trace/<id>);
    #: None disables the endpoint.
    traces: Optional[_trace.TraceBuffer] = None
    #: Always-on in-flight counter (reported by /healthz).
    inflight: RequestCounter = RequestCounter()
    #: Optional replication role object (ReplicationLeader or
    #: ReplicationFollower) — surfaces role/lag on /healthz and lets a
    #: ``min-version`` read park until the follower catches up.
    replication: Optional[object] = None
    #: Upper bound (seconds) a ``min-version`` read may park waiting
    #: for the store to catch up before answering 503 StaleRead.
    staleness_wait: float = 2.0

    # Route the stdlib handler's own messages (errors, ...) to the
    # access logger instead of stderr; silent unless configured.
    def log_message(self, format, *args):  # noqa: A002
        access_logger().debug(format % args)

    def do_GET(self):  # noqa: N802
        self._handle("GET", self._do_get)

    def do_POST(self):  # noqa: N802
        self._handle("POST", self._do_post)

    def do_PUT(self):  # noqa: N802
        self._handle("PUT", self._method_not_allowed)

    def do_DELETE(self):  # noqa: N802
        self._handle("DELETE", self._method_not_allowed)

    def do_PATCH(self):  # noqa: N802
        self._handle("PATCH", self._method_not_allowed)

    # ------------------------------------------------------------------
    # Request lifecycle: counting, tracing, access logging
    # ------------------------------------------------------------------

    def _handle(self, method: str, inner) -> None:
        """Run one request: count it, trace it, access-log it."""
        started = time.perf_counter()
        self._last_status: Optional[int] = None
        self._sent_bytes = 0
        incoming = self.headers.get("X-Trace-Id")
        tracing_on = self.trace_requests or _trace.is_enabled()
        # The trace id is echoed back whenever one exists: generated
        # when tracing, adopted (after validation) when the client sent
        # one — even an untraced server keeps the correlation header.
        self._trace_id = (
            _trace.adopt_trace_id(incoming)
            if (tracing_on or incoming)
            else None
        )
        with self.inflight:
            if tracing_on:
                with _trace.tracing(
                    "request",
                    trace_id=self._trace_id,
                    method=method,
                    path=urlparse(self.path).path,
                ) as request_trace:
                    # Parked up front (spans keep appending in place):
                    # a client that has read the response must never
                    # see its own id 404 on GET /trace/<id>, which an
                    # add-after-completion would allow, since the
                    # response bytes go out before this frame unwinds.
                    if self.traces is not None:
                        self.traces.add(request_trace)
                    inner()
            else:
                inner()
        self._log_access(method, started)

    def _log_access(self, method: str, started: float) -> None:
        logger = access_logger()
        if not logger.isEnabledFor(logging.INFO):
            return
        extra = {
            "method": method,
            "path": self.path,
            "status": self._last_status,
            "duration_ms": round((time.perf_counter() - started) * 1000, 3),
            "bytes": self._sent_bytes,
            "client": self.client_address[0],
        }
        if self._trace_id is not None:
            extra["trace_id"] = self._trace_id
        logger.info(
            "%s %s %s", method, self.path, self._last_status, extra=extra
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _do_get(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/metrics":
            self._send_metrics()
            return
        if parsed.path == "/healthz":
            self._send_healthz()
            return
        if parsed.path.startswith("/trace/"):
            self._send_trace(parsed.path[len("/trace/"):])
            return
        if parsed.path == "/explain":
            params = parse_qs(parsed.query)
            query = params.get("query", [None])[0]
            if not query:
                self._send_error(400, "missing query parameter")
                return
            language = params.get("language", ["sparql"])[0]
            self._gated(self._send_explain, language, query)
            return
        if parsed.path not in ("/sparql", "/pgql"):
            self._send_error(404, "not found")
            return
        params = parse_qs(parsed.query)
        query = params.get("query", [None])[0]
        if not query:
            self._send_error(400, "missing query parameter")
            return
        if not self._parse_min_version(params):
            return
        self._gated(self._run_read, self._front_end(parsed.path), query)

    def _do_post(self) -> None:
        parsed = urlparse(self.path)
        try:
            body = self._read_body()
        except _HttpError as exc:
            self._send_error(exc.status, exc.message)
            return
        content_type = self.headers.get("Content-Type", "")
        if parsed.path in ("/sparql", "/pgql"):
            # /pgql mirrors /sparql's protocol exactly (same gating,
            # timeout, min-version staleness contract); the dedicated
            # body content type is application/pgql-query.
            direct = (
                "application/pgql-query"
                if parsed.path == "/pgql"
                else "application/sparql-query"
            )
            if content_type.startswith(direct):
                query = body
            else:
                query = parse_qs(body).get("query", [None])[0]
            if not query:
                self._send_error(400, "missing query")
                return
            if not self._parse_min_version(parse_qs(parsed.query)):
                return
            self._gated(self._run_read, self._front_end(parsed.path), query)
        elif parsed.path == "/update":
            if not self.allow_updates:
                self._send_error(403, "updates are disabled")
                return
            if content_type.startswith("application/sparql-update"):
                update = body
            else:
                update = parse_qs(body).get("update", [None])[0]
            if not update:
                self._send_error(400, "missing update")
                return
            self._gated(self._run_update, update)
        else:
            self._send_error(404, "not found")

    # ------------------------------------------------------------------

    def _method_not_allowed(self) -> None:
        self.send_response(405)
        self.send_header("Allow", "GET, POST")
        payload = json.dumps({"error": "method not allowed"}).encode("utf-8")
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self._last_status = 405
        self._sent_bytes = len(payload)

    def _read_body(self) -> str:
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except (TypeError, ValueError):
            raise _HttpError(
                400, f"invalid Content-Length: {raw_length!r}"
            ) from None
        if length < 0:
            raise _HttpError(400, f"invalid Content-Length: {raw_length!r}")
        if length > self.max_body_bytes:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        data = self.rfile.read(length)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _HttpError(400, f"request body is not UTF-8: {exc}") from None

    def _front_end(self, path: str) -> str:
        """The query language a read path serves."""
        return "pgql" if path == "/pgql" else "sparql"

    def _gated(self, handler, *args) -> None:
        """Run one request inside the in-flight gate (429 when full),
        dispatching execution through the worker pool when one is
        configured (429 when its backpressure queue is full)."""
        if self.gate is not None and not self.gate.try_acquire():
            if _obs.is_enabled():
                _obs.registry().inc("server.throttled")
            self._send_error(
                429,
                f"server is at its {self.gate.limit}-request capacity; "
                "retry later",
            )
            return
        try:
            if self.pool is None:
                handler(*args)
                return
            try:
                # The connection thread blocks on the job while the
                # worker writes the response through this handler — the
                # socket stays owned by exactly one active thread.
                self.pool.execute(handler, *args)
            except PoolSaturated as exc:
                if _obs.is_enabled():
                    _obs.registry().inc("server.throttled")
                self._send_error(429, f"{exc}; retry later")
        finally:
            if self.gate is not None:
                self.gate.release()

    # ------------------------------------------------------------------
    # Staleness bounds (read replicas)
    # ------------------------------------------------------------------

    def _parse_min_version(self, params) -> bool:
        """Read the ``min-version`` token (query param or header).

        The read-your-writes contract: a client that wrote at
        ``data_version`` V sends ``min-version=V`` with its reads, and
        the serving replica either answers at version >= V or says it
        cannot (503 StaleRead + its current version) — never silently
        serves older data.  Returns False after sending an error.
        """
        raw = params.get("min-version", [None])[0]
        if raw is None:
            raw = self.headers.get("X-Min-Version")
        self._min_version: Optional[int] = None
        if raw is None:
            return True
        try:
            self._min_version = int(raw)
        except (TypeError, ValueError):
            self._send_error(400, f"invalid min-version: {raw!r}")
            return False
        return True

    def _await_min_version(self) -> bool:
        """Park (bounded) until the store reaches ``min-version``.

        Polling is deliberate: commits publish through one atomic
        reference swap with no condition variable on the read side,
        and the park interval (2 ms) is far below replication lag
        granularity.  Returns False after answering 503 StaleRead.
        """
        wanted = getattr(self, "_min_version", None)
        if wanted is None:
            return True
        network = self.engine.network
        if network.data_version >= wanted:
            return True
        deadline = time.monotonic() + max(self.staleness_wait, 0.0)
        while time.monotonic() < deadline:
            if network.data_version >= wanted:
                return True
            time.sleep(0.002)
        current = network.data_version
        if _obs.is_enabled():
            _obs.registry().inc("server.stale_reads")
        self._send(
            503,
            "application/json",
            json.dumps({
                "error": "StaleRead",
                "message": (
                    f"replica is at data_version {current}, "
                    f"client requires {wanted}"
                ),
                "min_version": wanted,
                "data_version": current,
            }),
        )
        return False

    def _run_read(self, language: str, query: str) -> None:
        """/sparql and /pgql: one read contract, two front-ends."""
        if not self._await_min_version():
            return
        try:
            result = self.engine.query(
                query, timeout=self.query_timeout, language=language
            )
        except QueryTimeout as exc:
            self._send_timeout(exc)
            return
        except SparqlError as exc:
            # PgqlSyntaxError subclasses SparqlError: malformed MATCH
            # input answers 400 with a JSON payload, never a traceback.
            self._send_error(400, str(exc))
            return
        accept = self.headers.get("Accept", "")
        if isinstance(result, bool):
            self._send(200, "application/sparql-results+json",
                       ask_to_json(result))
        elif isinstance(result, SelectResult):
            if "text/csv" in accept:
                self._send(200, "text/csv", to_csv(result))
            else:
                self._send(200, "application/sparql-results+json",
                           to_json(result, include_stats=True))
        else:  # CONSTRUCT / DESCRIBE: N-Triples
            from repro.rdf import Quad, serialize_nquads

            text = serialize_nquads(
                Quad(t.subject, t.predicate, t.object) for t in result
            )
            self._send(200, "application/n-triples", text)

    def _run_update(self, update: str) -> None:
        try:
            counts = self.engine.update(update, timeout=self.query_timeout)
        except QueryTimeout as exc:
            self._send_timeout(exc)
            return
        except SparqlError as exc:
            self._send_error(400, str(exc))
            return
        # The committed version is the client's read-your-writes token:
        # pass it as `min-version` on subsequent (replica) reads.
        counts = dict(counts)
        counts["data_version"] = self.engine.network.data_version
        self._send(200, "application/json", json.dumps(counts))

    def _send_explain(self, language: str, query: str) -> None:
        """The plan trees of the plan a query runs (not run)."""
        try:
            document = self.engine.explain_plan(
                query, format="json", language=language
            )
        except SparqlError as exc:
            self._send_error(400, str(exc))
            return
        self._send(200, "application/json", json.dumps(document))

    def _send_timeout(self, exc: QueryTimeout) -> None:
        """503 with a machine-readable QueryTimeout payload."""
        if _obs.is_enabled():
            _obs.registry().inc("server.timeouts")
        self._send(
            503,
            "application/json",
            json.dumps({
                "error": "QueryTimeout",
                "message": str(exc),
                "timeout": exc.timeout,
                "elapsed": exc.elapsed,
            }),
        )

    def _send_metrics(self) -> None:
        """The metrics registry: JSON by default, Prometheus text
        exposition when the Accept header asks for it."""
        accept = self.headers.get("Accept", "")
        if "text/plain" in accept or "openmetrics" in accept:
            self._send(200, _PROMETHEUS_TYPE, render_prometheus(_obs.snapshot()))
            return
        document = {
            "enabled": _obs.is_enabled(),
            "slow_queries": [
                entry.to_dict()
                for entry in self.engine.slow_queries.entries
            ],
            "plan_cache": self.engine.plan_cache.stats(),
        }
        document.update(_obs.snapshot())
        self._send(200, "application/json", json.dumps(document))

    def _send_healthz(self) -> None:
        """Load-balancer readiness: 503 once the WAL is poisoned.

        With replication attached, also reports the role, the applied
        ``data_version`` (the replica's staleness token ceiling) and
        the follower's lag — what a router uses to steer `min-version`
        reads to a sufficiently fresh replica.
        """
        wal_failed = bool(getattr(self.engine.network, "wal_failed", False))
        document = {
            "status": "failed" if wal_failed else "ok",
            "inflight": self.inflight.value,
            "wal_failed": wal_failed,
            "applied_data_version": self.engine.network.data_version,
        }
        if self.replication is not None:
            status = self.replication.status()
            document["role"] = status.get("role")
            replication = {
                key: status[key]
                for key in (
                    "epoch",
                    "connected",
                    "lag_frames",
                    "lag_seconds",
                    "applied_seq",
                    "leader_seq",
                )
                if key in status
            }
            document["replication"] = replication
        self._send(
            503 if wal_failed else 200,
            "application/json",
            json.dumps(document),
        )

    def _send_trace(self, trace_id: str) -> None:
        """One recently completed request trace as JSON (404 unknown)."""
        if self.traces is None:
            self._send_error(404, "tracing is not enabled on this server")
            return
        found = self.traces.get(trace_id)
        if found is None:
            self._send_error(404, f"no recent trace with id {trace_id!r}")
            return
        self._send(200, "application/json", json.dumps(found.to_dict()))

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type + "; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        if getattr(self, "_trace_id", None) is not None:
            self.send_header("X-Trace-Id", self._trace_id)
        # Every response advertises the serving version so clients can
        # chain staleness tokens without parsing bodies.
        network = getattr(self.engine, "network", None)
        if network is not None:
            self.send_header("X-Data-Version", str(network.data_version))
        self.end_headers()
        self.wfile.write(payload)
        self._last_status = status
        self._sent_bytes = len(payload)

    def _send_error(self, status: int, message: str) -> None:
        self._send(status, "application/json", json.dumps({"error": message}))


def make_server(
    engine: SparqlEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    allow_updates: bool = False,
    timeout: Optional[float] = None,
    max_inflight: Optional[int] = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    trace: bool = False,
    trace_buffer_capacity: int = 128,
    workers: Optional[int] = None,
    max_queue: Optional[int] = None,
    replication: Optional[object] = None,
    staleness_wait: float = 2.0,
) -> Tuple[ThreadingHTTPServer, int]:
    """Build (but don't start) the HTTP server; returns (server, port).

    ``timeout`` is the per-request query deadline in seconds (503 on
    expiry); ``max_inflight`` bounds concurrently executing requests
    (429 beyond); ``max_body_bytes`` caps POST bodies (413 beyond);
    ``trace=True`` runs every request under a span trace, keeping the
    last ``trace_buffer_capacity`` trees for ``GET /trace/<id>``;
    ``workers`` dispatches query/update execution through a
    :class:`WorkerPool` of that many threads behind a bounded queue of
    ``max_queue`` waiting jobs (default 2×workers, 429 when full).
    ``workers=None`` keeps the classic per-connection execution.
    ``replication`` attaches a leader/follower role object (surfaced on
    ``/healthz``); ``staleness_wait`` bounds how long a ``min-version``
    read parks before answering 503 StaleRead.
    """
    pool = (
        WorkerPool(workers, max_queue=max_queue)
        if workers is not None
        else None
    )
    handler = type(
        "BoundSparqlHandler",
        (SparqlRequestHandler,),
        {
            "engine": engine,
            "allow_updates": allow_updates,
            "query_timeout": timeout,
            "max_body_bytes": max_body_bytes,
            # `is not None` (not truthiness): max_inflight=0 must be
            # rejected by InflightGate, not silently mean "no gate".
            "gate": (
                InflightGate(max_inflight)
                if max_inflight is not None
                else None
            ),
            "pool": pool,
            "trace_requests": trace,
            # The buffer exists even when `trace` is False so traces
            # driven by the process-wide repro.obs.trace.enable() flag
            # are also retrievable.
            "traces": _trace.TraceBuffer(trace_buffer_capacity),
            "inflight": RequestCounter(),
            "replication": replication,
            "staleness_wait": staleness_wait,
        },
    )
    server = ThreadingHTTPServer((host, port), handler)
    #: Parked on the server so owners (SparqlServer.stop, the CLI) can
    #: join the workers at shutdown.
    server.worker_pool = pool
    return server, server.server_address[1]


class SparqlServer:
    """Context manager running the endpoint on a background thread.

    >>> with SparqlServer(engine) as server:
    ...     requests_like_get(f"http://127.0.0.1:{server.port}/sparql?...")
    """

    def __init__(
        self,
        engine: SparqlEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        allow_updates: bool = False,
        timeout: Optional[float] = None,
        max_inflight: Optional[int] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        trace: bool = False,
        trace_buffer_capacity: int = 128,
        workers: Optional[int] = None,
        max_queue: Optional[int] = None,
        replication: Optional[object] = None,
        staleness_wait: float = 2.0,
    ):
        self._server, self.port = make_server(
            engine,
            host,
            port,
            allow_updates,
            timeout=timeout,
            max_inflight=max_inflight,
            max_body_bytes=max_body_bytes,
            trace=trace,
            trace_buffer_capacity=trace_buffer_capacity,
            workers=workers,
            max_queue=max_queue,
            replication=replication,
            staleness_wait=staleness_wait,
        )
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "SparqlServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self, join_timeout: float = 5.0) -> None:
        """Shut the server down and wait for its thread to exit.

        Raises :class:`RuntimeError` if the serving thread is still
        alive after ``join_timeout`` seconds — a hung shutdown should
        be loud, not silently leaked.
        """
        self._server.shutdown()
        self._server.server_close()
        if self._server.worker_pool is not None:
            self._server.worker_pool.close(join_timeout=join_timeout)
        thread, self._thread = self._thread, None
        if thread is None:
            return
        thread.join(timeout=join_timeout)
        if thread.is_alive():
            raise RuntimeError(
                f"server thread failed to stop within {join_timeout:.1f}s"
            )

    def __enter__(self) -> "SparqlServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
