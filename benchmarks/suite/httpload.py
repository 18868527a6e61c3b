"""`http_serve`: loopback HTTP against ``SparqlServer(workers=2)`` in a
child process, two keep-alive ``http.client`` connections, read-only.

End-to-end numbers come from the ``closed`` phase (both connections
back to back), which gets the whole window on the untraced run.  The
traced run adds ``open30`` and ``open60`` on the same server — open
loops on a seeded Poisson schedule where each request is timed *from
when it was due* and the generator's lateness is reported; open-loop,
tail and saturation numbers are diagnostics.

Every body is checked: a pre-flight fetches each distinct text once and
compares its parsed rows (multiset digest and row count) with the
native answer computed in this process; timed requests must return 200
and either the same bytes (SHA-1) or, failing that, the same multiset.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

import common
import inproc
import oracle as oracle_mod
import workloads as wl
from trace import Recorder, median_ms

CONNECTIONS = 2
#: Shares of the window when the open-loop phases run too (traced run);
#: the untraced run gives the whole window to `closed`.
PHASES = (("closed", 0.4), ("open30", 0.3), ("open60", 0.3))
OPS_PER_SECOND = 1500
STALL_MS = 35.0
LATENCY_LIMIT_MS = 100.0
BACKLOG_LIMIT_MS = 50.0
CHILD_START_TIMEOUT = 120.0
REQUEST_TIMEOUT = 30.0
SLICE_S = 2.0
PROBE_REQUESTS = {wl.HTTP_SMALL: 80, wl.HTTP_PGQL: 80, wl.HTTP_WIDE: 24}


class Child:
    """The server process; always stopped and reaped by ``stop()``."""

    def __init__(self, egos: int):
        self.proc = subprocess.Popen(
            [
                sys.executable, os.path.join(common.SUITE_DIR, "serve_child.py"),
                "--egos", str(egos), "--dataset-seed", str(wl.DATASET_SEED),
                "--workers", str(CONNECTIONS),
            ],
            cwd=common.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.info: dict = {}

    def ready(self) -> dict:
        """Wait for the child's start line (killed if it never comes)."""
        timer = threading.Timer(CHILD_START_TIMEOUT, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise RuntimeError(f"server child exited with {self.proc.wait()}")
        self.info = json.loads(line)
        return self.info

    def rusage(self) -> dict:
        self.proc.stdin.write("rusage\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        proc = self.proc
        try:
            if proc.poll() is None:
                proc.stdin.write("stop\n")
                proc.stdin.flush()
        except OSError:
            pass
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)

    def get(self, path: str) -> Tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def send(self, op) -> Tuple[int, bytes]:
        if op.lang == "pgql":
            self.conn.request(
                "POST", "/pgql", body=op.text.encode("utf-8"),
                headers={"Content-Type": "application/pgql-query"},
            )
        else:
            self.conn.request("GET", "/sparql?query=" + quote(op.text, safe=""))
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


class Checker:
    """Expected answers per text, and the byte hash seen in pre-flight."""

    def __init__(self, graph_oracle: oracle_mod.GraphOracle):
        self.graph_oracle = graph_oracle
        self.body_hash: Dict[str, str] = {}

    def expected(self, op) -> oracle_mod.Expected:
        return self.graph_oracle.expected(op.key)

    def preflight(self, op, status: int, body: bytes) -> bool:
        want = self.expected(op)
        if status != 200 or oracle_mod.digest_json_body(body) != (want.digest, want.rows):
            return False
        self.body_hash[op.text] = hashlib.sha1(body).hexdigest()
        return True

    def ok(self, op, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        if hashlib.sha1(body).hexdigest() == self.body_hash.get(op.text):
            return True
        want = self.expected(op)
        try:
            return oracle_mod.digest_json_body(body) == (want.digest, want.rows)
        except (ValueError, KeyError):
            return False


class Sample:
    __slots__ = ("cls", "latency", "end", "late", "status", "ok", "size")

    def __init__(self, cls, latency, end, late, status, ok, size):
        self.cls = cls
        self.latency = latency
        self.end = end
        self.late = late
        self.status = status
        self.ok = ok
        self.size = size


def _request(client: Client, checker: Checker, op, due: float, sent: float,
             rec: Optional[Recorder] = None, parent: int = -1, op_id: int = -1) -> Sample:
    span = rec.begin("http.request", parent, op_id) if rec else -1
    try:
        status, body = client.send(op)
    except (OSError, http.client.HTTPException):
        status, body = 0, b""
    done = time.perf_counter()
    if rec:
        rec.end(span)
    return Sample(op.cls, done - due, done, sent - due, status,
                  checker.ok(op, status, body), len(body))


def closed_phase(port: int, checker: Checker, ops: Sequence, seconds: float) -> Tuple[List[Sample], float, float]:
    """Both connections back to back; returns the samples, when the
    phase started and its wall seconds."""
    results: List[List[Sample]] = [[] for _ in range(CONNECTIONS)]
    barrier = threading.Barrier(CONNECTIONS + 1)

    def worker(slot: int) -> None:
        client = Client(port)
        mine = ops[slot::CONNECTIONS]
        samples = results[slot]
        try:
            barrier.wait()
            deadline = time.perf_counter() + seconds
            index = 0
            while True:
                op = mine[index % len(mine)]
                index += 1
                sent = time.perf_counter()
                sample = _request(client, checker, op, sent, sent)
                if sent + sample.latency > deadline:
                    return
                samples.append(sample)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = min(time.perf_counter() - started, seconds)
    return [s for samples in results for s in samples], started, wall


def open_phase(port: int, checker: Checker, ops: Sequence, due: Sequence[float],
               seconds: float) -> Tuple[List[Sample], int]:
    """Requests sent on the schedule whatever the server does; returns
    the samples and how many scheduled requests were never sent because
    the window had closed (they miss every latency limit)."""
    results: List[List[Sample]] = [[] for _ in range(CONNECTIONS)]
    lock = threading.Lock()
    cursor = [0]
    unsent = [0]
    barrier = threading.Barrier(CONNECTIONS + 1)
    origin = [0.0]

    def worker(slot: int) -> None:
        client = Client(port)
        samples = results[slot]
        try:
            barrier.wait()
            start = origin[0]
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(due):
                    return
                due_at = start + due[index]
                wait = due_at - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                if sent > start + seconds:
                    with lock:
                        unsent[0] += 1
                    continue
                samples.append(_request(client, checker, ops[index % len(ops)], due_at, sent))
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    origin[0] = time.perf_counter() + 0.05
    barrier.wait()
    for thread in threads:
        thread.join()
    return [s for samples in results for s in samples], unsent[0]


def slice_throughput(samples: Sequence[Sample], started: float, wall: float) -> float:
    """Median over ``SLICE_S`` slices of requests completed per second:
    the throughput of the typical second, which a one-slice dip (a
    neighbour's burst on this shared box) does not pull down."""
    slices = max(int(wall / SLICE_S), 1)
    counts = [0] * slices
    for sample in samples:
        index = int((sample.end - started) / SLICE_S)
        if 0 <= index < slices:
            counts[index] += 1
    return statistics.median(counts) / SLICE_S


def open_summary(samples: List[Sample], unsent: int) -> dict:
    """Latency from due time, with never-sent and failed requests
    counted as missing the latency limit."""
    latencies = sorted(s.latency for s in samples if s.ok)
    missing = unsent + sum(1 for s in samples if not s.ok)
    total = len(samples) + unsent
    padded = latencies + [float("inf")] * missing
    p95 = common.percentile(padded, 0.95)
    late = sorted(s.late for s in samples)
    tail = [s.late for s in samples[-max(len(samples) // 5, 1):]]
    return {
        "n": total,
        "p50_ms": common.percentile(padded, 0.50) * 1e3,
        "p95_ms": p95 * 1e3,
        "late_p95_ms": common.percentile(late, 0.95) * 1e3,
        "unsent": unsent,
        "meets_limit": (
            p95 * 1e3 <= LATENCY_LIMIT_MS
            and statistics.fmean(tail) * 1e3 <= BACKLOG_LIMIT_MS
        ),
    }


def plan_cache_stats(port: int) -> dict:
    client = Client(port)
    try:
        status, body = client.get("/metrics")
    finally:
        client.close()
    return json.loads(body)["plan_cache"] if status == 200 else {}


def start_child(egos: int, first_query) -> Tuple[Child, float, float, float]:
    """Spawn -> port -> /healthz ok -> first query answered; returns the
    child and the three timestamps."""
    started = time.perf_counter()
    child = Child(egos)
    try:
        info = child.ready()
        client = Client(info["port"])
        try:
            status, _ = client.get("/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
            ready = time.perf_counter()
            status, _ = client.send(first_query)
            if status != 200:
                raise RuntimeError(f"first query answered {status}")
            answered = time.perf_counter()
        finally:
            client.close()
    except BaseException:
        child.stop()
        raise
    return child, started, ready, answered


def run(seed: int, seconds: float, traced: bool, egos: int) -> dict:
    from repro.core import PgVocabulary

    graph, tag, hub = common.build_graph(egos, wl.DATASET_SEED)
    vocab = PgVocabulary()
    facts = wl.graph_facts(graph, tag, hub)
    texts = wl.http_texts(facts, vocab)
    checker = Checker(oracle_mod.GraphOracle(graph, vocab))
    first_query = texts[wl.HTTP_SMALL][0]
    setup_s: List[float] = []
    raw_setup_s: List[float] = []
    restart_s: List[float] = []
    load_quads_s: List[float] = []
    child: Optional[Child] = None
    try:
        for _ in range(common.SETUP_ROUNDS):
            if child is not None:
                child.stop()
                child = None
            child, started, ready, answered = start_child(egos, first_query)
            info = child.info
            # The child scales its own build (graph + load + server
            # start) by the speed it measured around each stage; spawn,
            # interpreter start-up and imports stay as the clock read.
            scaled = info["build_s"] - info["raw_build_s"]
            setup_s.append(ready - started + scaled)
            raw_setup_s.append(ready - started)
            restart_s.append(answered - started + scaled)
            load_quads_s.append(info["quads"] / (info["transform_s"] + info["bulk_load_s"]))
        return _serve(child, seed, seconds, traced, graph, texts, checker, {
            "setup_s": setup_s, "raw_setup_s": raw_setup_s, "restart_s": restart_s,
            "load_quads_s": load_quads_s, "tag": tag, "hub": hub,
        })
    finally:
        if child is not None:
            child.stop()


def _serve(child, seed, seconds, traced, graph, texts, checker, setup) -> dict:
    port = child.info["port"]
    attempted = failed = 0
    first_error = ""
    client = Client(port)
    try:
        for ops in texts.values():
            for op in ops:
                attempted += 1
                status, body = client.send(op)
                if not checker.preflight(op, status, body):
                    failed += 1
                    first_error = first_error or f"pre-flight {op.cls}: status {status} or wrong rows"
    finally:
        client.close()
    ops = wl.http_ops(texts, seed, max(int(seconds * OPS_PER_SECOND), 100))
    warm, _, _ = closed_phase(port, checker, ops, min(common.WARMUP_SECONDS, seconds / 4))
    cache_before = plan_cache_stats(port)
    usage_before = child.rusage()
    lengths = {name: seconds * share for name, share in PHASES} if traced else {"closed": seconds}
    closed, closed_start, closed_wall = closed_phase(
        port, checker, ops[len(warm):] or ops, lengths["closed"])
    usage_after = child.rusage()
    opens = {}
    open_samples: List[Sample] = []
    if traced:
        for name, rate in (("open30", 30.0), ("open60", 60.0)):
            due = wl.arrival_schedule(seed * 1000 + int(rate), rate, lengths[name])
            samples, unsent = open_phase(
                port, checker, wl.http_ops(texts, seed + int(rate), len(due) or 1),
                due, lengths[name])
            opens[name] = open_summary(samples, unsent)
            open_samples += samples
    cache_after = plan_cache_stats(port)
    usage_end = child.rusage()

    everything = warm + closed + open_samples
    attempted += len(everything)
    bad = [s for s in everything if not s.ok]
    failed += len(bad)
    if bad and not first_error:
        first_error = f"{bad[0].cls}: status {bad[0].status} or wrong body"
    latencies = [s.latency for s in closed]
    summary = common.summarize_ms(latencies)
    hits = cache_after.get("hits", 0) - cache_before.get("hits", 0)
    misses = cache_after.get("misses", 0) - cache_before.get("misses", 0)
    rejected = sum(1 for s in everything if s.status in (429, 503))
    diagnostics = {
        "http.closed_p99_ms": common.percentile(sorted(latencies), 0.99) * 1e3,
        "http.stall_share": (
            sum(1 for s in latencies if s * 1e3 > STALL_MS) / len(latencies)
            if latencies else 0.0
        ),
        "server.cpu_ms_per_req": (
            (usage_after["cpu_s"] - usage_before["cpu_s"]) * 1e3 / len(closed)
            if closed else 0.0
        ),
        "server.rejected_share": rejected / len(everything) if everything else 0.0,
        "serialize.bytes_out": statistics.fmean(s.size for s in closed) if closed else 0.0,
        "plancache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "plancache.evictions": cache_after.get("evictions", 0) - cache_before.get("evictions", 0),
    }
    if traced:
        diagnostics.update({
            "http.open30_p50_ms": opens["open30"]["p50_ms"],
            "http.open30_p95_ms": opens["open30"]["p95_ms"],
            "http.open60_p95_ms": opens["open60"]["p95_ms"],
            "http.late_ms": opens["open60"]["late_p95_ms"],
            "http.max_rate_ok": max(
                [rate for name, rate in (("open30", 30.0), ("open60", 60.0))
                 if opens[name]["meets_limit"]] or [0.0]
            ),
        })
    values = {
        "setup_s": statistics.median(setup["setup_s"]),
        "restart_to_first_query_s": statistics.median(setup["restart_s"]),
        "load_quads_s": statistics.median(setup["load_quads_s"]),
        "page_bytes_per_quad": child.info["page_bytes_per_quad"],
        "ops_s": slice_throughput(closed, closed_start, closed_wall),
        "p50_ms": summary["p50_ms"],
        "p95_ms": summary["p95_ms"],
        "peak_rss_mb": usage_end["maxrss_mb"],
    }
    by_class: Dict[str, List[float]] = {}
    for s in closed:
        by_class.setdefault(s.cls, []).append(s.latency)
    detail = {
        "setup_s": common.rounds_summary(setup["setup_s"]),
        "restart_to_first_query_s": common.rounds_summary(setup["restart_s"]),
        "load_quads_s": common.rounds_summary(setup["load_quads_s"]),
        "dataset": common.dataset_detail(
            graph, setup["tag"], setup["hub"], {"NG": child.info["quads"]}),
        "window_s": lengths,
        "connections": CONNECTIONS,
        "samples": len(closed),
        "warmup_ops": len(warm),
        "distinct_texts": sum(len(v) for v in texts.values()),
        "top_percentile": {"q": summary["top_q"], "ms": summary["top_ms"]},
        "classes": {cls: common.summarize_ms(v) for cls, v in sorted(by_class.items())},
        "open": opens,
        "raw": {
            # The window numbers of this workload are raw already: the
            # speed kernel cannot run beside a busy server.
            "ops_s": len(closed) / closed_wall if closed_wall else 0.0,
            "p50_ms": summary["p50_ms"],
            "p95_ms": summary["p95_ms"],
            "setup_s": statistics.median(setup["raw_setup_s"]),
            "speed_factor": child.info["build_s"] / child.info["raw_build_s"],
            "speed_samples": 0,
        },
        "diagnostics": diagnostics,
        "problems": [],
        "first_error": first_error,
    }
    outcome = {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
    }
    if traced:
        _trace_layers(outcome, child.info, graph, texts, checker, diagnostics)
    return outcome


def _trace_layers(outcome, info, graph, texts, checker, diagnostics) -> None:
    """One-connection probe per class (client-side ``http.request``
    spans), then the same texts replayed stage by stage on an in-process
    store: what HTTP adds is the first minus the second."""
    from repro.core import PropertyGraphRdfStore

    rec = Recorder()
    client = Client(info["port"])
    http_ns: Dict[str, List[int]] = {}
    op_id = 0
    plan: List = []
    try:
        for cls, ops in texts.items():
            for index in range(PROBE_REQUESTS[cls]):
                op = ops[index % len(ops)]
                plan.append(op)
                root = rec.begin("op", -1, op_id)
                sent = time.perf_counter()
                sample = _request(client, checker, op, sent, sent, rec, root, op_id)
                rec.end(root)
                outcome["attempted"] += 1
                if not sample.ok:
                    outcome["failed"] += 1
                http_ns.setdefault(cls, []).append(int(sample.latency * 1e9))
                op_id += 1
    finally:
        client.close()
    store = PropertyGraphRdfStore(model="NG")
    store.load(graph)
    stager = inproc.Stager(store, rec)
    # Two passes: the second meets a warm plan cache, as the server does.
    warm_stats = inproc.ReplayStats()
    stats = inproc.ReplayStats()
    for pass_stats in (warm_stats, stats):
        for op in plan:
            inproc.replay_read(stager, op, op_id, checker.expected(op), pass_stats, with_json=True)
            op_id += 1
    hit_ns, json_ns = stats.by_class_hit, stats.by_class_json
    overhead = {
        cls: median_ms(http_ns[cls]) - median_ms(hit_ns.get(cls, [])) - median_ms(json_ns.get(cls, []))
        for cls in http_ns
    }
    layers = inproc.replay_layers(rec, stats)
    layers.update(diagnostics)
    layers.update({
        "server.overhead_ms": overhead[wl.HTTP_SMALL],
        "serialize.json_ms": median_ms(json_ns.get(wl.HTTP_WIDE, [])),
        "transform.quads_s": info["quads"] / info["transform_s"],
        "network.bulk_load_quads_s": info["quads"] / info["bulk_load_s"],
        "pages.bytes_per_quad.NG": info["page_bytes_per_quad"],
    })
    outcome["layers"] = layers
    outcome["recorder"] = rec
    outcome["failed"] += warm_stats.failed + stats.failed + len(stager.problems)
    outcome["attempted"] += warm_stats.ops + stats.ops
    outcome["detail"]["problems"] = stager.problems
    outcome["detail"]["server_overhead_ms_by_class"] = overhead
    outcome["detail"]["first_error"] = (
        outcome["detail"]["first_error"] or warm_stats.first_error or stats.first_error
    )
