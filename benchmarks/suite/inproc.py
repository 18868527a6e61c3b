"""In-process workloads (`point_lookup`, `scan_analytics`) and the
pieces `durable_lifecycle` shares with them: set-up rounds, the closed
timed loop, the staged replay and the outside-in layer probes."""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import common
import oracle as oracle_mod
import workloads as wl
from calibrate import SpeedTrace, StageClock
from trace import NAME, PARENT, Recorder, median_ms, median_us

ENCODINGS = {"point_lookup": ("NG",), "scan_analytics": ("NG", "SP")}
#: Ops generated per second of window: above what the engine sustains,
#: so a window never runs out (it would wrap around if it did).
POINT_OPS_PER_SECOND = 8000
#: Traced ops per second of the untraced window — about a third of the
#: untraced volume (each staged op also runs one or two one-call legs).
TRACED_POINT_OPS_PER_SECOND = 700
TRACED_SCAN_CYCLES_PER_SECOND = 0.2


# ----------------------------------------------------------------------
# Set-up rounds
# ----------------------------------------------------------------------


class Setup:
    """What the set-up rounds leave behind and how long they took (at
    reference speed; ``raw_setup_s`` is as the clock read)."""

    def __init__(self):
        self.graph = None
        self.tag = ""
        self.hub = 0
        self.stores: Dict[str, object] = {}
        self.setup_s: List[float] = []
        self.raw_setup_s: List[float] = []
        self.restart_s: List[float] = []
        self.load_quads_s: List[float] = []
        self.transform_quads_s: List[float] = []
        self.bulk_load_quads_s: List[float] = []

    def record_load(self, times: common.LoadTimes) -> None:
        self.load_quads_s.append(times.quads_per_s)
        self.transform_quads_s.append(times.quads / times.transform_s)
        self.bulk_load_quads_s.append(times.quads / times.bulk_load_s)


def setup_rounds(
    encodings: Sequence[str], egos: int, speed: SpeedTrace,
    rec: Optional[Recorder] = None,
) -> Setup:
    """Generate the graph and build the stores ``SETUP_ROUNDS`` times;
    the last round's stores serve the window.  A round ends with one
    answered query, which is what a restart of an in-memory store costs
    (everything is rebuilt from the source graph)."""
    from repro.core import PropertyGraphRdfStore

    out = Setup()
    clock = StageClock(speed)
    for _ in range(common.SETUP_ROUNDS):
        out.stores = {}
        out.graph = None
        root = rec.begin("setup") if rec else -1
        clock.start()
        graph, tag, hub = common.build_graph(egos, wl.DATASET_SEED)
        raw, setup_s = clock.lap()
        times = common.LoadTimes()
        stores = {}
        for enc in encodings:
            store = PropertyGraphRdfStore(model=enc)
            common.load_store(store, graph, clock, times, rec, root)
            stores[enc] = store
        first = stores[encodings[0]]
        span = rec.begin("first_query", root) if rec else -1
        first.select(first.queries.eq1(tag))
        if rec:
            rec.end(span)
            rec.end(root)
        _, first_s = clock.lap()
        out.graph, out.tag, out.hub, out.stores = graph, tag, hub, stores
        out.setup_s.append(setup_s + times.seconds)
        out.raw_setup_s.append(raw + times.raw_s)
        out.restart_s.append(setup_s + times.seconds + first_s)
        out.record_load(times)
    return out


# ----------------------------------------------------------------------
# Closed timed loop
# ----------------------------------------------------------------------


class Window:
    """The whole ops one closed-loop client completed.  ``latencies``
    are at reference speed once ``normalise`` has run; ``raw`` keeps
    them as the clock read."""

    def __init__(self):
        self.classes: List[str] = []
        self.latencies: List[float] = []
        self.ends: List[float] = []
        self.raw: List[float] = []
        self.failed = 0
        self.first_error = ""

    def record(self, cls: str, seconds: float, end: float, ok: bool, error: str = "") -> None:
        self.classes.append(cls)
        self.latencies.append(seconds)
        self.ends.append(end)
        if not ok:
            self.failed += 1
            if not self.first_error:
                self.first_error = error or f"wrong answer on {cls}"

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def by_class(self) -> Dict[str, List[float]]:
        grouped: Dict[str, List[float]] = {}
        for cls, seconds in zip(self.classes, self.latencies):
            grouped.setdefault(cls, []).append(seconds)
        return grouped

    def whole_cycles(self, cycle: int) -> None:
        """Drop the trailing partial cycle, so every class weighs the
        same in the pooled numbers whatever order the seed gave."""
        keep = len(self.latencies) // cycle * cycle
        if keep:
            del self.latencies[keep:]
            del self.classes[keep:]
            del self.ends[keep:]

    def normalise(self, speed: SpeedTrace) -> None:
        """Scale every latency by the machine speed around its op."""
        self.raw = self.latencies
        self.latencies = [
            seconds * speed.factor_at(end - seconds / 2)
            for seconds, end in zip(self.raw, self.ends)
        ]


def closed_loop(
    ops: Sequence,
    call: Callable,
    check: Callable,
    seconds: float,
    speed: SpeedTrace,
    start_at: int = 0,
) -> Window:
    """One client, back to back, for ``seconds``; an op still running at
    the deadline is not counted.  The answer is checked after the clock
    stops for that op, so checking (and the speed kernel, see
    ``calibrate.py``) costs window time but no latency."""
    window = Window()
    clock = time.perf_counter
    speed.sample()
    deadline = clock() + seconds
    index = start_at
    count = len(ops)
    while True:
        op = ops[index % count]
        index += 1
        error = ""
        started = clock()
        try:
            result = call(op)
        except Exception as exc:  # a failed op is counted, not fatal
            result = None
            error = f"{type(exc).__name__}: {exc}"
        finished = clock()
        # Checked even when it will not be counted: a write's oracle
        # must see every write the store saw.
        ok = not error and check(op, result)
        speed.maybe_sample(finished)
        if finished > deadline:
            speed.burst()
            return window
        window.record(op.label, finished - started, finished, ok, error)


def window_metrics(latencies: Sequence[float]) -> Dict[str, float]:
    """One closed-loop client: throughput is ops over summed latency."""
    summary = common.summarize_ms(latencies)
    busy = sum(latencies)
    return {
        "ops_s": len(latencies) / busy if busy else 0.0,
        "p50_ms": summary["p50_ms"],
        "p95_ms": summary["p95_ms"],
    }


def raw_metrics(window: Window, setup_raw: Sequence[float], speed: SpeedTrace) -> Dict[str, float]:
    """The same numbers as the clock read them, for the results file."""
    return {
        **window_metrics(window.raw),
        "setup_s": statistics.median(setup_raw),
        "speed_factor": speed.median_factor(),
        "speed_samples": len(speed.seconds),
    }


def cycle_percentiles(
    labels: Sequence[str], latencies: Sequence[float], cycle: Sequence
) -> Dict[str, float]:
    """p50/p95 across the ops of a fixed cycle, each op standing for its
    median latency over the window's cycles — a full collection that
    happens to fall inside one run of an op does not move that op."""
    by_label: Dict[str, List[float]] = {}
    for label, seconds in zip(labels, latencies):
        by_label.setdefault(label, []).append(seconds)
    ordered = sorted(statistics.median(by_label[op.label]) for op in cycle)
    return {
        "p50_ms": common.percentile(ordered, 0.50) * 1e3,
        "p95_ms": common.percentile(ordered, 0.95) * 1e3,
    }


def class_detail(window: Window) -> Dict[str, dict]:
    return {
        cls: common.summarize_ms(latencies)
        for cls, latencies in sorted(window.by_class.items())
    }


# ----------------------------------------------------------------------
# Expected answers
# ----------------------------------------------------------------------


def scan_expectations(setup: Setup, cycle: Sequence) -> Tuple[Dict[Tuple[str, str], object], List[str]]:
    """Baseline answers of the scan classes, each verified before the
    window: NG == SP, PGQL twin == SPARQL, native counts.  Returns
    ``{(cls, enc): Expected-or-None}`` and the list of violations."""
    from repro.pgql import pgql_experiment_queries

    graph_oracle = oracle_mod.GraphOracle(setup.graph, setup.stores["NG"].vocabulary)
    problems: List[str] = []
    answers: Dict[Tuple[str, str], Tuple[str, int]] = {}
    results = {}
    for op in cycle:
        result = common.run_op(setup.stores[op.enc], op)
        results[(op.cls, op.enc)] = result
        answers[(op.cls, op.enc)] = oracle_mod.digest_result(result)
    bad = set()

    def violation(cls: str, message: str) -> None:
        bad.add(cls)
        problems.append(f"{cls}: {message}")

    for (cls, enc), answer in answers.items():
        if enc == "SP" and answers.get((cls, "NG")) != answer:
            violation(cls, "NG and SP answers differ")
    ng = setup.stores["NG"]
    twins = pgql_experiment_queries(setup.tag, setup.hub)
    for cls in wl.SCAN_CLASSES:
        twin = oracle_mod.digest_result(ng.pgql(twins[cls]))
        if twin != answers[(cls, "NG")]:
            violation(cls, "PGQL twin differs from SPARQL")
    builder = ng.queries
    hub_iri = f"<{ng.vocabulary.vertex_iri(setup.hub).value}>"
    twin_text = (
        "SELECT ?m ?k ?v WHERE { "
        + builder.edge_with_kvs_pattern(hub_iri, "follows", "?m", "?e") + " "
        + builder.edge_kv_pattern("?e", "?k", "?v") + " }"
    )
    if oracle_mod.digest_result(ng.select(twin_text)) != answers[("EKV_hub", "NG")]:
        violation("EKV_hub", "PGQL differs from its SPARQL twin")
    native = {
        "EQ12": graph_oracle.triangles(),
        "EQ11d": graph_oracle.hop_count(setup.hub, 4),
        "EQ11e": graph_oracle.hop_count(setup.hub, 5),
    }
    for cls, count in native.items():
        if oracle_mod.count_of(results[(cls, "NG")]) != count:
            violation(cls, f"differs from the native count {count}")
    eq4 = graph_oracle.expected(("eq4", setup.tag))
    if (eq4.digest, eq4.rows) != answers[("EQ4", "NG")]:
        violation("EQ4", "differs from the native answer")
    expected = {
        key: None if key[0] in bad else oracle_mod.Expected(*answer)
        for key, answer in answers.items()
    }
    return expected, problems


# ----------------------------------------------------------------------
# Staged replay (traced run)
# ----------------------------------------------------------------------


class Stager:
    """Runs one read op stage by stage through each layer's public
    function, one span per call, and cross-checks the staged plan
    against ``compile_query`` once per class."""

    def __init__(self, store, rec: Recorder):
        from repro.pgql import compiler_for
        from repro.sparql.parser import Parser

        self.store = store
        self.rec = rec
        self.parser = Parser(store.vocabulary.prefixes())
        self.pgql_compiler = compiler_for(store.model, store.vocabulary)
        self.checked_classes: set = set()
        self.problems: List[str] = []
        self.counts: Dict[str, Tuple[int, int, int]] = {}

    def run(self, op, root: int, op_id: int):
        """Returns ``(result, execute_ns)``."""
        from repro.pgql import parse as pgql_parse
        from repro.sparql import algebra
        from repro.sparql.ast import AskQuery
        from repro.sparql.executor import CompiledQuery, execute
        from repro.sparql.optimize import optimize
        from repro.sparql.physical import ProjectOp, compile_plan

        rec = self.rec
        begin, end = rec.begin, rec.end
        if op.lang == "pgql":
            span = begin("pgql.parse", root, op_id)
            parsed = pgql_parse(op.text)
            end(span)
            span = begin("pgql.compile", root, op_id)
            ast = self.pgql_compiler.compile(parsed)
            end(span)
        else:
            span = begin("sparql.parse", root, op_id)
            ast = self.parser.parse_query(op.text)
            end(span)
        span = begin("snapshot.pin", root, op_id)
        snapshot = self.store.network.snapshot()
        end(span)
        model = snapshot.model("pg")
        is_ask = isinstance(ast, AskQuery)
        span = begin("algebra.lower", root, op_id)
        logical = algebra.lower_group(ast.where) if is_ask else algebra.lower_select(ast)
        end(span)
        span = begin("optimize.rewrite", root, op_id)
        optimized = optimize(logical)
        end(span)
        span = begin("physical.compile", root, op_id)
        plan_root = compile_plan(optimized, snapshot, model, True)
        end(span)
        variables: Tuple[str, ...] = ()
        if not is_ask:
            node = plan_root
            while not isinstance(node, ProjectOp):
                node = node.input
            variables = node.names
        compiled = CompiledQuery(
            form="ask" if is_ask else "select",
            ast=ast,
            logical=logical,
            optimized=optimized,
            root=plan_root,
            variables=variables,
            streaming=is_ask or _has_slice(plan_root),
            model_name="pg",
            data_version=snapshot.data_version,
            language="pgql" if op.lang == "pgql" else "sparql",
        )
        if op.cls not in self.checked_classes:
            self.checked_classes.add(op.cls)
            self._cross_check(op, ast, snapshot, model, compiled)
        batch_size = self.store.engine.batch_size
        span = begin("executor.execute", root, op_id)
        result = execute(compiled, snapshot, model, batch_size=batch_size)
        execute_ns = end(span)
        if op.text not in self.counts:
            self.counts[op.text] = self._count(compiled, snapshot, model, batch_size)
        return result, execute_ns

    def _cross_check(self, op, ast, snapshot, model, compiled) -> None:
        from repro.sparql.executor import compile_query
        from repro.sparql.physical import render_physical

        reference = compile_query(ast, snapshot, model, "pg")
        same = (
            render_physical(reference.root) == render_physical(compiled.root)
            and reference.variables == compiled.variables
            and reference.streaming == compiled.streaming
            and reference.form == compiled.form
        )
        if not same:
            self.problems.append(
                f"{op.cls}: staged plan differs from compile_query"
            )

    def _count(self, compiled, snapshot, model, batch_size) -> Tuple[int, int, int]:
        """(rows scanned, rows out, batches) of one execution, from the
        per-query collector — counts, so they repeat exactly."""
        from repro.obs import QueryCollector
        from repro.obs import metrics as obs_metrics
        from repro.sparql.executor import execute

        collector = QueryCollector()
        with obs_metrics.collect(collector):
            result = execute(
                compiled, snapshot, model, collector=collector,
                batch_size=batch_size,
            )
        rows_out = 1 if isinstance(result, bool) else len(result.rows)
        counters = collector.counters
        return (
            counters.get("index.rows_scanned", 0),
            rows_out,
            counters.get("exec.batches", 0),
        )


def _has_slice(op) -> bool:
    from repro.sparql.physical import SliceOp

    if isinstance(op, SliceOp):
        return True
    return any(_has_slice(child) for child in op.children())


class ReplayStats:
    """Per-op numbers the staged replay collects beside its spans."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.first_error = ""
        self.first_hits = 0
        self.overhead_ns: List[int] = []
        self.miss_penalty_ns: List[int] = []
        self.rows_scanned = 0
        self.rows_out = 0
        self.batches = 0
        self.evictions = 0
        self.by_class_execute: Dict[str, List[int]] = {}
        #: One-call time on a plan-cache hit, and ``to_json`` time.
        self.by_class_hit: Dict[str, List[int]] = {}
        self.by_class_json: Dict[str, List[int]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = message


def replay_read(
    stager: Stager, op, op_id: int, expected, stats: ReplayStats,
    with_json: bool = False,
) -> None:
    """One traced read op: the staged legs under a root ``op`` span,
    then the one-call leg(s); the staged result must equal the one-call
    result and the expected answer."""
    rec = stager.rec
    store = stager.store
    stats.ops += 1
    root = rec.begin("op", -1, op_id)
    try:
        staged, execute_ns = stager.run(op, root, op_id)
        if with_json and not isinstance(staged, bool):
            from repro.sparql.serialize import to_json

            span = rec.begin("serialize.to_json", root, op_id)
            to_json(staged)
            stats.by_class_json.setdefault(op.cls, []).append(rec.end(span))
    except Exception as exc:
        rec.end(root)
        stats.fail(f"{op.cls}: staged {type(exc).__name__}: {exc}")
        return
    rec.end(root)
    cache = store.engine.plan_cache
    before = cache.stats()
    span = rec.begin("engine.call", -1, op_id)
    try:
        direct = common.run_op(store, op)
    except Exception as exc:
        rec.end(span)
        stats.fail(f"{op.cls}: {type(exc).__name__}: {exc}")
        return
    first_ns = rec.end(span)
    after = cache.stats()
    stats.evictions += after["evictions"] - before["evictions"]
    hit = after["hits"] > before["hits"]
    hit_ns = first_ns
    if hit:
        stats.first_hits += 1
    else:
        span = rec.begin("engine.call.hit", -1, op_id)
        common.run_op(store, op)
        hit_ns = rec.end(span)
        stats.miss_penalty_ns.append(first_ns - hit_ns)
    stats.overhead_ns.append(hit_ns - execute_ns)
    stats.by_class_execute.setdefault(op.cls, []).append(execute_ns)
    stats.by_class_hit.setdefault(op.cls, []).append(hit_ns)
    scanned, rows_out, batches = stager.counts[op.text]
    stats.rows_scanned += scanned
    stats.rows_out += max(rows_out, 1)
    stats.batches += batches
    if oracle_mod.digest_result(staged) != oracle_mod.digest_result(direct):
        stats.fail(f"{op.cls}: staged result differs from the one-call result")
    elif expected is None or not expected.matches(direct):
        stats.fail(f"{op.cls}: wrong answer")


def replay_layers(rec: Recorder, stats: ReplayStats) -> Dict[str, float]:
    """Per-layer metrics out of the replay's spans and counts."""
    selfs = rec.self_times()
    layers = {
        "pgql.parse_us": median_us(selfs.get("pgql.parse", [])),
        "pgql.compile_us": median_us(selfs.get("pgql.compile", [])),
        "sparql.parse_us": median_us(selfs.get("sparql.parse", [])),
        "snapshot.pin_us": median_us(selfs.get("snapshot.pin", [])),
        "algebra.lower_us": median_us(selfs.get("algebra.lower", [])),
        "optimize.rewrite_us": median_us(selfs.get("optimize.rewrite", [])),
        "physical.compile_us": median_us(selfs.get("physical.compile", [])),
        "executor.execute_ms": median_ms(selfs.get("executor.execute", [])),
        "engine.overhead_us": median_us(stats.overhead_ns),
        "engine.miss_penalty_us": median_us(stats.miss_penalty_ns),
        "plancache.hit_rate": stats.first_hits / stats.ops if stats.ops else 0.0,
        "plancache.evictions": stats.evictions,
        "executor.rows_scanned_per_result": (
            stats.rows_scanned / stats.rows_out if stats.rows_out else 0.0
        ),
        "executor.batches": stats.batches / stats.ops if stats.ops else 0.0,
    }
    op_ns = sum(rec.durations("op"))
    spans_in_ops = sum(1 for s in rec.spans if s[PARENT] >= 0 or s[NAME] == "op")
    layers["trace.overhead_share"] = (
        spans_in_ops * rec.empty_span_ns() / op_ns if op_ns else 0.0
    )
    front = sum(
        sum(selfs.get(name, []))
        for name in (
            "pgql.parse", "pgql.compile", "sparql.parse", "algebra.lower",
            "optimize.rewrite", "physical.compile",
        )
    )
    layers["frontend.share"] = front / op_ns if op_ns else 0.0
    return layers


# ----------------------------------------------------------------------
# Outside-in layer probes (traced run only)
# ----------------------------------------------------------------------


def probe_index(store, facts, seed: int) -> Dict[str, float]:
    """Full-predicate scan rate and bound-prefix probe cost of the
    store's indexes, through the model's public scan API."""
    network = store.network
    vocab = store.vocabulary
    model = network.snapshot().model("pg")
    follows = network.lookup_term(vocab.label_iri("follows"))
    pattern = (None, follows, None, None)
    started = time.perf_counter()
    rows = sum(len(batch) for batch in model.scan_row_batches(pattern, (0, 2)))
    scan_s = time.perf_counter() - started
    rng = random.Random(seed)
    probes = []
    for vertex in rng.choices(facts.vertices, k=400):
        subject = network.lookup_term(vocab.vertex_iri(vertex))
        bound = (subject, follows, None, None)
        index, _ = model.choose_index(bound)
        begun = time.perf_counter_ns()
        index.range_quads(bound)
        probes.append(time.perf_counter_ns() - begun)
    return {
        "index.scan_rows_s": rows / scan_s if scan_s else 0.0,
        "index.probe_us": median_us(probes),
    }


def probe_values(store) -> Dict[str, float]:
    """Term interning on a fresh table; ID -> term decode of a column."""
    from repro.store.values import ValuesTable

    table = store.network.values.term_table()
    terms = [t for t in table[1:20001] if t is not None]
    fresh = ValuesTable()
    started = time.perf_counter()
    for term in terms:
        fresh.get_or_add(term)
    encode_s = time.perf_counter() - started
    ids = list(range(1, len(terms) + 1)) * 5
    started = time.perf_counter()
    decoded = [table[i] for i in ids]
    decode_s = time.perf_counter() - started
    return {
        "values.encode_terms_s": len(terms) / encode_s,
        "values.decode_terms_s": len(decoded) / decode_s,
    }


def page_bytes_per_quad(store) -> float:
    from repro.store import storage_report

    return storage_report(store.network).page_bytes_per_quad


# ----------------------------------------------------------------------
# The two workloads
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool, egos: int) -> dict:
    rec = Recorder() if traced else None
    speed = SpeedTrace()
    setup = setup_rounds(ENCODINGS[workload], egos, speed, rec)
    ng = setup.stores["NG"]
    vocab = ng.vocabulary
    facts = wl.graph_facts(setup.graph, setup.tag, setup.hub)
    problems: List[str] = []
    if workload == "point_lookup":
        graph_oracle = oracle_mod.GraphOracle(setup.graph, vocab)
        count = int(seconds * (TRACED_POINT_OPS_PER_SECOND if traced else POINT_OPS_PER_SECOND))
        ops = wl.point_lookup_ops(facts, vocab, seed, max(count, 50))
        expected = {op.text: graph_oracle.expected(op.key) for op in ops}

        def expect(op):
            return expected[op.text]
    else:
        cycles = (
            max(1, int(seconds * TRACED_SCAN_CYCLES_PER_SECOND)) if traced
            else int(seconds) + 2  # a cycle takes ~2 s; wraps if faster
        )
        ops = wl.scan_cycles(facts, vocab, seed, cycles)
        by_class, problems = scan_expectations(setup, ops[:wl.SCAN_CYCLE_OPS])

        def expect(op):
            return by_class[(op.cls, op.enc)]

    values = {
        "setup_s": statistics.median(setup.setup_s),
        "restart_to_first_query_s": statistics.median(setup.restart_s),
        "load_quads_s": statistics.median(setup.load_quads_s),
        "page_bytes_per_quad": page_bytes_per_quad(ng),
    }
    detail = {
        "setup_s": common.rounds_summary(setup.setup_s),
        "restart_to_first_query_s": common.rounds_summary(setup.restart_s),
        "load_quads_s": common.rounds_summary(setup.load_quads_s),
        "dataset": common.dataset_detail(
            setup.graph, setup.tag, setup.hub,
            {enc: len(s.network.model("pg")) for enc, s in setup.stores.items()},
        ),
        "problems": problems,
    }
    if traced:
        return _traced(workload, seed, setup, facts, ops, expect, rec, values, detail)

    stores = setup.stores

    def call(op):
        return common.run_op(stores[op.enc], op)

    def check(op, result):
        want = expect(op)
        return want is not None and want.matches(result)

    warm = closed_loop(ops, call, check, min(common.WARMUP_SECONDS, seconds / 4), speed)
    before = {enc: s.engine.plan_cache.stats() for enc, s in stores.items()}
    # The scan window starts on a cycle boundary and keeps whole cycles.
    start_at = warm.attempted if workload == "point_lookup" else 0
    window = closed_loop(ops, call, check, seconds, speed, start_at=start_at)
    if workload == "scan_analytics":
        window.whole_cycles(wl.SCAN_CYCLE_OPS)
    window.normalise(speed)
    after = {enc: s.engine.plan_cache.stats() for enc, s in stores.items()}
    hits = sum(after[e]["hits"] - before[e]["hits"] for e in stores)
    misses = sum(after[e]["misses"] - before[e]["misses"] for e in stores)
    values.update(window_metrics(window.latencies))
    raw = raw_metrics(window, setup.raw_setup_s, speed)
    if workload == "scan_analytics":
        cycle = ops[:wl.SCAN_CYCLE_OPS]
        values.update(cycle_percentiles(window.classes, window.latencies, cycle))
        raw.update(cycle_percentiles(window.classes, window.raw, cycle))
    values["peak_rss_mb"] = common.peak_rss_mb()
    summary = common.summarize_ms(window.latencies)
    detail.update({
        "window_s": seconds,
        "samples": window.attempted,
        "warmup_ops": warm.attempted,
        "top_percentile": {"q": summary["top_q"], "ms": summary["top_ms"]},
        "classes": class_detail(window),
        "plancache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "first_error": window.first_error or warm.first_error,
        "raw": raw,
    })
    return {
        "values": values,
        "attempted": window.attempted + warm.attempted,
        "failed": window.failed + warm.failed + len(problems),
        "detail": detail,
    }


def _traced(workload, seed, setup, facts, ops, expect, rec, values, detail) -> dict:
    stagers = {enc: Stager(store, rec) for enc, store in setup.stores.items()}
    stats = ReplayStats()
    for op_id, op in enumerate(ops):
        replay_read(stagers[op.enc], op, op_id, expect(op), stats)
    layers = replay_layers(rec, stats)
    ng = setup.stores["NG"]
    layers.update(probe_index(ng, facts, seed))
    layers.update(probe_values(ng))
    layers["transform.quads_s"] = statistics.median(setup.transform_quads_s)
    layers["network.bulk_load_quads_s"] = statistics.median(setup.bulk_load_quads_s)
    for enc, store in setup.stores.items():
        layers[f"pages.bytes_per_quad.{enc}"] = page_bytes_per_quad(store)
    for stager in stagers.values():
        detail["problems"] = detail["problems"] + stager.problems
    detail.update({
        "samples": stats.ops,
        "first_error": stats.first_error,
        "execute_ms_by_class": {
            cls: median_ms(ns) for cls, ns in sorted(stats.by_class_execute.items())
        },
    })
    values["peak_rss_mb"] = common.peak_rss_mb()
    return {
        "values": values,
        "layers": layers,
        "attempted": stats.ops,
        "failed": stats.failed + len(detail["problems"]),
        "detail": detail,
        "recorder": rec,
    }
