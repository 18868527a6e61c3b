"""`durable_lifecycle`: load + checkpoint, a mixed read/write loop, and
restarts, on ``open_durable(dir, fsync="always")``.

Three phases on the NG encoding:

* **A** (x ``SETUP_ROUNDS``, the set-up): fresh directory -> generate
  the graph -> transform -> ``bulk_load`` (journaled) -> ``checkpoint()``;
* **B** (the timed window): 4 reads : 1 write, ``checkpoint()`` after
  every 400th write, charged to the write that triggered it;
* **C** (x ``SETUP_ROUNDS``): ``close()`` -> ``open_durable`` -> engine ->
  first query answered.

The store's contents must equal the set oracle of every acknowledged
write before ``close()`` and after every reopen.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Dict, List, Optional

import common
import inproc
import oracle as oracle_mod
import workloads as wl
from calibrate import SpeedTrace, StageClock
from trace import Recorder, median_ms, median_us

OPS_PER_SECOND = 2000
TRACED_OPS_PER_SECOND = 100
#: Ops run (untimed, checked) after a final checkpoint and before the
#: restarts, so every run replays the same length of WAL tail — without
#: it the tail is whatever the window left since its last checkpoint
#: (0-400 writes) and restart time moves by a second between runs.
TAIL_OPS = 250


class DurableStore:
    """The pieces of ``PropertyGraphRdfStore`` the harness uses, over a
    ``DurableNetwork`` (the facade only builds in-memory networks)."""

    model = "NG"

    def __init__(self, network, vocabulary=None):
        from repro.core import PgQueryBuilder, PgVocabulary, transformer_for
        from repro.sparql import SparqlEngine

        self.vocabulary = vocabulary if vocabulary is not None else PgVocabulary()
        self.network = network
        self.transformer = transformer_for(self.model, self.vocabulary)
        self.queries = PgQueryBuilder(self.model, self.vocabulary)
        self.engine = SparqlEngine(
            network,
            prefixes=self.vocabulary.prefixes(),
            default_model="pg",
            pgql_encoding=self.model,
            pgql_vocabulary=self.vocabulary,
        )


def open_store(directory: str) -> DurableStore:
    from repro.store import open_durable

    return DurableStore(open_durable(directory, fsync=common.FSYNC_POLICY))


def dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(directory)
        for name in names
    )


class PhaseA(inproc.Setup):
    """Set-up rounds on a durable store (times at reference speed)."""

    def __init__(self):
        super().__init__()
        self.checkpoint_s: List[float] = []
        self.disk_bytes_per_quad = 0.0
        self.quads = 0
        self.store: Optional[DurableStore] = None
        self.directory = ""


def phase_a(base: str, egos: int, speed: SpeedTrace, rec: Optional[Recorder]) -> PhaseA:
    from repro.core.facade import NG_INDEXES

    out = PhaseA()
    clock = StageClock(speed)
    for round_no in range(common.SETUP_ROUNDS):
        if out.store is not None:
            out.store.network.close()
            shutil.rmtree(out.directory)
            out.store = None
        directory = os.path.join(base, f"store{round_no}")
        root = rec.begin("setup") if rec else -1
        clock.start()
        graph, tag, hub = common.build_graph(egos, wl.DATASET_SEED)
        store = open_store(directory)
        store.network.create_model("pg", NG_INDEXES)
        raw_open, open_s = clock.lap()
        times = common.LoadTimes()
        common.load_store(store, graph, clock, times, rec, root)
        span = rec.begin("checkpoint", root) if rec else -1
        store.network.checkpoint()
        if rec:
            rec.end(span)
            rec.end(root)
        raw_checkpoint, checkpoint_s = clock.lap()
        out.setup_s.append(open_s + times.seconds + checkpoint_s)
        out.raw_setup_s.append(raw_open + times.raw_s + raw_checkpoint)
        out.record_load(times)
        out.checkpoint_s.append(checkpoint_s)
        out.quads = times.quads
        out.disk_bytes_per_quad = dir_bytes(directory) / times.quads
        out.graph, out.tag, out.hub = graph, tag, hub
        out.store, out.directory = store, directory
    return out


def state_ok(store: DurableStore, state: oracle_mod.StateOracle) -> bool:
    return state.matches(store.network.quads("pg"))


def phase_c(a: PhaseA, state, speed: SpeedTrace, rec: Optional[Recorder]) -> dict:
    """Restart rounds; returns timings and the number of failed checks."""
    from repro.store.replication.digest import state_digest

    restart_s: List[float] = []
    recover_s: List[float] = []
    replayed: List[int] = []
    failed = 0
    problems: List[str] = []
    store = a.store
    clock = StageClock(speed)
    digest = state_digest(store.network.snapshot())
    if not state_ok(store, state):
        failed += 1
        problems.append("store differs from the set oracle before close()")
    text = store.queries.eq1(a.tag)
    for round_no in range(common.SETUP_ROUNDS):
        root = rec.begin("restart") if rec else -1
        span = rec.begin("close", root) if rec else -1
        clock.start()
        store.network.close()
        if rec:
            rec.end(span)
            span = rec.begin("open_durable", root)
        _, close_s = clock.lap()
        store = open_store(a.directory)
        if rec:
            rec.end(span)
            span = rec.begin("first_query", root)
        _, open_s = clock.lap()
        store.engine.select(text)
        if rec:
            rec.end(span)
            rec.end(root)
        _, first_s = clock.lap()
        restart_s.append(close_s + open_s + first_s)
        recover_s.append(open_s)
        replayed.append(store.network.recovery_stats.wal_records)
        if not state_ok(store, state):
            failed += 1
            problems.append(f"reopen {round_no}: store differs from the set oracle")
        if state_digest(store.network.snapshot()) != digest:
            failed += 1
            problems.append(f"reopen {round_no}: state_digest changed across restart")
    a.store = store
    return {
        "restart_s": restart_s,
        "recover_s": recover_s,
        "replayed": replayed,
        "failed": failed,
        "checks": 1 + 2 * common.SETUP_ROUNDS,
        "problems": problems,
        "state_digest": digest,
    }


def run(seed: int, seconds: float, traced: bool, egos: int) -> dict:
    rec = Recorder() if traced else None
    base = common.work_dir("durable")
    speed = SpeedTrace()
    a = phase_a(base, egos, speed, rec)
    try:
        return _run(a, base, seed, seconds, speed, rec)
    finally:
        if a.store is not None:
            a.store.network.close()


def _run(a: PhaseA, base: str, seed: int, seconds: float, speed: SpeedTrace,
         rec: Optional[Recorder]) -> dict:
    store = a.store
    vocab = store.vocabulary
    facts = wl.graph_facts(a.graph, a.tag, a.hub)
    graph_oracle = oracle_mod.GraphOracle(a.graph, vocab)
    state = oracle_mod.StateOracle(store.network.quads("pg"), vocab)
    per_second = TRACED_OPS_PER_SECOND if rec else OPS_PER_SECOND
    ops = wl.durable_ops(facts, vocab, seed, max(int(seconds * per_second), 50))
    expected = {
        op.text: graph_oracle.expected(op.key) for op in ops if op.lang != "update"
    }
    values = {
        "setup_s": statistics.median(a.setup_s),
        "load_quads_s": statistics.median(a.load_quads_s),
        "page_bytes_per_quad": inproc.page_bytes_per_quad(store),
    }
    detail = {
        "setup_s": common.rounds_summary(a.setup_s),
        "load_quads_s": common.rounds_summary(a.load_quads_s),
        "checkpoint_s": common.rounds_summary(a.checkpoint_s),
        "dataset": common.dataset_detail(a.graph, a.tag, a.hub, {"NG": a.quads}),
        "fsync_policy": common.FSYNC_POLICY,
        "problems": [],
    }
    if rec:
        return _traced(a, base, seed, ops, expected, state, speed, rec, values, detail)

    writes = [0]

    def call(op):
        if op.lang != "update":
            return common.run_op(store, op)
        result = store.engine.update(op.text)
        writes[0] += 1
        if writes[0] % wl.CHECKPOINT_EVERY_WRITES == 0:
            store.network.checkpoint()
        return result

    def check(op, result):
        if op.lang == "update":
            want = state.apply(op.key)
            return all(result.get(k) == v for k, v in want.items())
        return expected[op.text].matches(result)

    warm = inproc.closed_loop(ops, call, check, min(common.WARMUP_SECONDS, seconds / 4), speed)
    window = inproc.closed_loop(ops, call, check, seconds, speed, start_at=warm.attempted + 1)
    executed = warm.attempted + window.attempted + 2  # + the op past each deadline
    window.normalise(speed)
    tail_failed = wal_tail(store, ops, executed, check)
    c = phase_c(a, state, speed, None)
    values.update(inproc.window_metrics(window.latencies))
    values["restart_to_first_query_s"] = statistics.median(c["restart_s"])
    values["peak_rss_mb"] = common.peak_rss_mb()
    by_class = window.by_class
    reads = [s for cls, ls in by_class.items() if not _is_write(cls) for s in ls]
    write_lat = [s for cls, ls in by_class.items() if _is_write(cls) for s in ls]
    summary = common.summarize_ms(window.latencies)
    detail.update({
        "window_s": seconds,
        "samples": window.attempted,
        "warmup_ops": warm.attempted,
        "top_percentile": {"q": summary["top_q"], "ms": summary["top_ms"]},
        "classes": inproc.class_detail(window),
        "restart_to_first_query_s": common.rounds_summary(c["restart_s"]),
        "checkpoints_in_window": writes[0] // wl.CHECKPOINT_EVERY_WRITES,
        "state_digest": c["state_digest"],
        "problems": c["problems"],
        "first_error": window.first_error or warm.first_error,
        "raw": inproc.raw_metrics(window, a.raw_setup_s, speed),
        "diagnostics": {
            "read_p50_ms": common.summarize_ms(reads)["p50_ms"],
            "write_p50_ms": common.summarize_ms(write_lat)["p50_ms"],
            "checkpoint_s": statistics.median(a.checkpoint_s),
            "disk_bytes_per_quad": a.disk_bytes_per_quad,
            "recover_s": statistics.median(c["recover_s"]),
            "replayed_records": statistics.median(c["replayed"]),
        },
    })
    return {
        "values": values,
        "attempted": window.attempted + warm.attempted + TAIL_OPS + c["checks"],
        "failed": window.failed + warm.failed + tail_failed + c["failed"],
        "detail": detail,
    }


def wal_tail(store: DurableStore, ops, start_at: int, check) -> int:
    """Checkpoint, then the next ``TAIL_OPS`` ops of the stream; returns
    how many of them failed."""
    store.network.checkpoint()
    failed = 0
    for index in range(start_at, start_at + TAIL_OPS):
        op = ops[index % len(ops)]
        try:
            ok = check(op, common.run_op(store, op))
        except Exception:  # a failed op is counted, not fatal
            ok = False
        failed += not ok
    return failed


def _is_write(cls: str) -> bool:
    return cls in ("insert_edge", "delete_edge", "set_property")


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _traced(a, base, seed, ops, expected, state, speed, rec, values, detail) -> dict:
    from repro.core import PropertyGraphRdfStore
    from repro.obs import metrics as obs
    from repro.sparql.parser import Parser

    store = a.store
    network = store.network
    # The in-memory twin takes every write too: durable update minus
    # twin update is what journaling costs.
    twin = PropertyGraphRdfStore(model="NG")
    twin.load(a.graph)
    stager = inproc.Stager(store, rec)
    stats = inproc.ReplayStats()
    parser = Parser(store.vocabulary.prefixes())
    update_ns: List[int] = []
    twin_ns: List[int] = []
    journal_ns: List[int] = []
    parse_update_ns: List[int] = []
    thawed = fsyncs = wal_bytes = changed = writes = 0
    for op_id, op in enumerate(ops):
        if op.lang != "update":
            inproc.replay_read(stager, op, op_id, expected[op.text], stats)
            continue
        stats.ops += 1
        writes += 1
        root = rec.begin("op", -1, op_id)
        span = rec.begin("sparql.parse_update", root, op_id)
        parser.parse_update(op.text)
        parse_update_ns.append(rec.end(span))
        size_before = os.path.getsize(network.wal_path)
        registry = obs.enable()
        thawed_before = registry.counter("pages.thawed")
        fsyncs_before = registry.counter("wal.fsyncs")
        span = rec.begin("engine.update", root, op_id)
        try:
            result = store.engine.update(op.text)
        except Exception as exc:
            stats.fail(f"{op.cls}: {type(exc).__name__}: {exc}")
            result = {}
        durable_ns = rec.end(span)
        rec.end(root)
        thawed += registry.counter("pages.thawed") - thawed_before
        fsyncs += registry.counter("wal.fsyncs") - fsyncs_before
        obs.disable()
        wal_bytes += os.path.getsize(network.wal_path) - size_before
        span = rec.begin("twin.update", -1, op_id)
        twin.engine.update(op.text)
        plain_ns = rec.end(span)
        update_ns.append(durable_ns)
        twin_ns.append(plain_ns)
        journal_ns.append(durable_ns - plain_ns)
        want = state.apply(op.key)
        changed += want["inserted"] + want["deleted"]
        if any(result.get(k) != v for k, v in want.items()):
            stats.fail(f"{op.cls}: update reported {result}, oracle {want}")
    store.network.checkpoint()
    c = phase_c(a, state, speed, rec)
    store = a.store
    layers = inproc.replay_layers(rec, stats)
    layers.update(inproc.probe_index(store, wl.graph_facts(a.graph, a.tag, a.hub), seed))
    layers.update(inproc.probe_values(store))
    layers.update(probe_index_writes())
    layers.update(probe_wal(base))
    layers.update(probe_persist(store, base))
    publish = []
    for _ in range(50):
        begun = time.perf_counter_ns()
        with twin.network.write_batch():
            pass
        publish.append(time.perf_counter_ns() - begun)
    read_ns = rec.durations("engine.call")
    layers.update({
        "sparql.parse_update_us": median_us(parse_update_ns),
        "snapshot.publish_ms": median_ms(publish),
        "transform.quads_s": statistics.median(a.transform_quads_s),
        "network.bulk_load_quads_s": statistics.median(a.bulk_load_quads_s),
        "network.update_apply_ms": median_ms(twin_ns),
        "pages.bytes_per_quad.NG": inproc.page_bytes_per_quad(store),
        "pages.thawed_per_write": thawed / writes if writes else 0.0,
        "wal.bytes_per_quad": wal_bytes / changed if changed else 0.0,
        "wal.fsyncs_per_write": fsyncs / writes if writes else 0.0,
        "durable.journal_overhead_ms": median_ms(journal_ns),
        "durable.checkpoint_s": statistics.median(a.checkpoint_s),
        "durable.recover_s": statistics.median(c["recover_s"]),
        "durable.replayed_records": statistics.median(c["replayed"]),
        "durable.read_p50_ms": median_ms(read_ns),
        "durable.write_p50_ms": median_ms(update_ns),
        "durable.disk_bytes_per_quad": a.disk_bytes_per_quad,
    })
    values["restart_to_first_query_s"] = statistics.median(c["restart_s"])
    values["peak_rss_mb"] = common.peak_rss_mb()
    detail.update({
        "samples": stats.ops,
        "problems": c["problems"] + stager.problems,
        "first_error": stats.first_error,
        "state_digest": c["state_digest"],
    })
    return {
        "values": values,
        "layers": layers,
        "attempted": stats.ops + c["checks"],
        "failed": stats.failed + c["failed"] + len(stager.problems),
        "detail": detail,
        "recorder": rec,
    }


def probe_index_writes(count: int = 500) -> Dict[str, float]:
    """Insert/delete cost of a model's indexes, on a scratch model."""
    from repro.core.facade import NG_INDEXES
    from repro.store import SemanticModel

    model = SemanticModel("scratch", NG_INDEXES)
    model.bulk_load([(s, 1 + s % 7, 2 * s, s % 50) for s in range(1, 20001)])
    fresh = [(s, 3, 2 * s + 1, 51) for s in range(1, 40 * count, 40)]
    inserts, deletes = [], []
    for quad in fresh:
        begun = time.perf_counter_ns()
        model.insert(quad)
        inserts.append(time.perf_counter_ns() - begun)
    for quad in fresh:
        begun = time.perf_counter_ns()
        model.delete(quad)
        deletes.append(time.perf_counter_ns() - begun)
    return {
        "index.insert_us": median_us(inserts),
        "index.delete_us": median_us(deletes),
    }


def probe_wal(base: str, count: int = 200) -> Dict[str, float]:
    """Append cost with and without the fsync, on a scratch log."""
    from repro.core import PgVocabulary
    from repro.rdf.quad import Quad
    from repro.store import WriteAheadLog
    from repro.store.wal import insert_record

    vocab = PgVocabulary()
    record = insert_record("pg", Quad(
        vocab.vertex_iri(1), vocab.label_iri("mentions"), vocab.vertex_iri(2),
        vocab.edge_iri(3),
    ))
    medians = {}
    for policy in ("none", "always"):
        path = os.path.join(base, f"scratch-{policy}.wal")
        samples = []
        with WriteAheadLog(path, fsync=policy) as log:
            for _ in range(count):
                begun = time.perf_counter_ns()
                log.append(record)
                samples.append(time.perf_counter_ns() - begun)
        medians[policy] = statistics.median(samples)
        os.remove(path)
    return {
        "wal.append_us": medians["none"] / 1e3,
        "wal.fsync_ms": max(medians["always"] - medians["none"], 0) / 1e6,
    }


def probe_persist(store: DurableStore, base: str) -> Dict[str, float]:
    from repro.store.persist import load_network, save_network

    target = os.path.join(base, "persist-probe")
    begun = time.perf_counter()
    save_network(store.network.snapshot(), target)
    saved = time.perf_counter()
    load_network(target)
    loaded = time.perf_counter()
    size = dir_bytes(target)
    shutil.rmtree(target)
    return {
        "persist.save_s": saved - begun,
        "persist.load_s": loaded - saved,
        "persist.bytes": size,
    }
