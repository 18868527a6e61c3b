"""The public SPARQL engine facade.

Analogous to Oracle's SEM_MATCH entry point: queries are posed against
a named semantic model (base or virtual), with engine-level prefix
declarations and Oracle-style union default-graph semantics by default.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

from repro.obs import ExplainAnalysis, QueryCollector, SlowQueryLog
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.rdf.quad import Triple
from repro.sparql import algebra as _algebra
from repro.sparql.deadline import Deadline, deadline_for
from repro.sparql.errors import EvaluationError, QueryTimeout
from repro.sparql.executor import compile_query, execute
from repro.sparql.parser import Parser
from repro.sparql.physical import (
    access_plan,
    physical_to_dict,
    render_physical,
)
from repro.sparql.plancache import PlanCache, lift, statistics_epoch
from repro.sparql.results import SelectResult
from repro.sparql.update import UpdateExecutor

#: The context a read enters when nothing is traced or collected: one
#: shared instance, so the untraced path allocates nothing for it.
_UNTRACED = nullcontext()


class PreparedQuery:
    """A parsed query bound to an engine, reusable across executions."""

    def __init__(self, engine: "SparqlEngine", ast, model: Optional[str]):
        self._engine = engine
        self.ast = ast
        self._model = model

    def run(self, model: Optional[str] = None, timeout: Optional[float] = None):
        return self._engine.run_ast(
            self.ast, model or self._model, timeout=timeout
        )


class SparqlEngine:
    """Query/update interface over a :class:`~repro.store.SemanticNetwork`."""

    def __init__(
        self,
        network,
        prefixes: Optional[Dict[str, str]] = None,
        default_model: Optional[str] = None,
        default_graph_semantics: str = "union",
        filter_pushdown: bool = True,
        collect_stats: bool = False,
        slow_query_seconds: Optional[float] = None,
        timeout: Optional[float] = None,
        trace: bool = False,
        plan_cache_size: int = 128,
        batch_size: Optional[int] = None,
        pgql_encoding: Optional[str] = None,
        pgql_vocabulary=None,
    ):
        if default_graph_semantics not in ("union", "strict"):
            raise ValueError(
                "default_graph_semantics must be 'union' or 'strict'"
            )
        self.network = network
        self._parser = Parser(prefixes)
        # The parser carries per-parse state (token stream, blank-node
        # counter); the threaded endpoint parses under this lock so one
        # engine can serve concurrent requests.
        self._parser_lock = threading.Lock()
        self._default_model = default_model
        self._union_default = default_graph_semantics == "union"
        self._filter_pushdown = filter_pushdown
        #: When True, every SELECT carries a ``repro.obs.QueryStats`` in
        #: ``result.stats`` (one collector per execution).
        self.collect_stats = collect_stats
        #: Bounded log of queries slower than ``slow_query_seconds``
        #: (None disables recording).
        self.slow_queries = SlowQueryLog(slow_query_seconds)
        #: Default per-query wall-clock budget in seconds; a query past
        #: it raises :class:`~repro.sparql.errors.QueryTimeout`.  None
        #: disables deadline checks entirely (the evaluator's fast
        #: path).  Individual calls may override via ``timeout=``.
        self.timeout = timeout
        #: When True, every query runs under a span trace whose tree is
        #: attached as ``result.stats.trace``.  The process-wide
        #: ``repro.obs.trace.enable()`` flag has the same effect; when a
        #: caller (e.g. the HTTP server) already opened a trace on this
        #: thread, the engine nests its spans under it instead of
        #: starting a second one.
        self.trace = trace
        #: LRU cache of compiled plans keyed by (query shape, model
        #: name) — constants lifted to slots, bound per execution — and
        #: invalidated by the model's statistics epoch, not by writes
        #: (:mod:`repro.sparql.plancache`).  Every front-end and
        #: prepared query shares it.
        self.plan_cache = PlanCache(plan_cache_size)
        #: Target rows per batch on the vectorized execution path.
        #: ``REPRO_BATCH_SIZE`` overrides the default (the CI matrix
        #: runs the suite at batch size 1 to prove batch-boundary
        #: independence).
        if batch_size is None:
            batch_size = int(os.environ.get("REPRO_BATCH_SIZE") or 1024)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        #: PG-as-RDF encoding (``"NG"``/``"SP"``/``"RF"``) the PGQL
        #: front-end compiles against, and the vocabulary mapping PG
        #: identifiers to IRIs.  None disables :meth:`pgql` unless the
        #: call supplies an encoding explicitly.
        self.pgql_encoding = pgql_encoding
        self.pgql_vocabulary = pgql_vocabulary
        self._pgql_compilers: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------

    def prepare(self, text: str, model: Optional[str] = None) -> PreparedQuery:
        return PreparedQuery(self, self._parse_query(text), model)

    def query(
        self,
        text: str,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        language: str = "sparql",
    ):
        """Parse and run any query form (SELECT / ASK / CONSTRUCT /
        DESCRIBE); ``language`` names the front end, ``"sparql"`` or
        ``"pgql"``."""
        return self._read(text, model, timeout, language)

    def select(self, text: str, model: Optional[str] = None) -> SelectResult:
        result = self.query(text, model)
        if not isinstance(result, SelectResult):
            raise EvaluationError("not a SELECT query")
        return result

    def ask(self, text: str, model: Optional[str] = None) -> bool:
        result = self.query(text, model)
        if not isinstance(result, bool):
            raise EvaluationError("not an ASK query")
        return result

    def construct(self, text: str, model: Optional[str] = None) -> List[Triple]:
        result = self.query(text, model)
        if not isinstance(result, list):
            raise EvaluationError("not a CONSTRUCT query")
        return result

    def run_ast(
        self,
        ast,
        model: Optional[str] = None,
        collector: Optional[QueryCollector] = None,
        text: Optional[str] = None,
        timeout: Optional[float] = None,
        snapshot=None,
    ):
        """Run a parsed SPARQL query, on ``snapshot`` when given."""
        return self._read(
            text, model, timeout, ast=ast, collector=collector,
            snapshot=snapshot,
        )

    def pgql(
        self,
        text: str,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        encoding: Optional[str] = None,
    ):
        """Run a PGQL/Cypher-subset MATCH query (see ``docs/PGQL.md``).

        The query is parsed and lowered per the paper's Table 3 rules
        into the same AST the SPARQL parser produces, then runs through
        the same read path as :meth:`query` — pinned snapshot, plan
        cache (one entry per query shape, shared with SPARQL queries of
        the same shape), EXPLAIN/trace and batched execution included.
        """
        return self._read(text, model, timeout, "pgql", encoding=encoding)

    def _read(
        self,
        text: Optional[str],
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        language: str = "sparql",
        encoding: Optional[str] = None,
        ast=None,
        snapshot=None,
        collector: Optional[QueryCollector] = None,
        render: Optional[str] = None,
        analyze: bool = False,
        trace: bool = False,
    ):
        """The one read path: every query, run and EXPLAIN enters here.

        Opens a trace if one is wanted, pins the snapshot, runs the
        front end ``language`` names (unless ``ast`` is given) and
        fetches or compiles the plan (:meth:`_compiled_for`).  Then it
        either renders that plan with this request's constants
        (``render``: ``"access"``, ``"text"`` or ``"json"``) or executes
        it; ``analyze`` returns an :class:`ExplainAnalysis` of the run.

        No read lock is taken anywhere on this path: the snapshot's
        copy-on-write arrays make it immune to concurrent writers, so
        queries never wait behind updates (and vice versa).
        """
        wanted = (trace or self.trace or _trace.is_enabled()) and (
            not _trace.is_active()
        )
        with _trace.tracing("query") if wanted else _UNTRACED:
            # Pinned before the front end: everything after this line
            # sees one immutable data_version, whatever writers do.
            if snapshot is None:
                snapshot = self._pin_snapshot()
            if ast is None:
                ast, text = self._front_end(text, language, encoding)
            model_name = self._model_name(model)
            store_model = snapshot.model(model_name)
            traced = _trace.is_active()
            if collector is None and (analyze or self.collect_stats or traced):
                # A trace implies a collector: the span tree rides back
                # to the caller on ``result.stats``.
                collector = QueryCollector()
            observing = (
                collector is not None
                or self.slow_queries.enabled
                or _obs.is_enabled()
            )
            start = time.perf_counter() if observing else None
            deadline = deadline_for(
                self.timeout if timeout is None else timeout
            )
            with _UNTRACED if collector is None else _obs.collect(collector):
                compiled, params = self._compiled_for(
                    ast, model_name, store_model, language, snapshot
                )
                if render is not None:
                    return self._render(
                        render, compiled, params, language, store_model,
                        snapshot,
                    )
                try:
                    with _trace.span(
                        "execute", form=type(ast).__name__
                    ) if traced else _UNTRACED:
                        result = execute(
                            compiled, snapshot, store_model,
                            collector=collector, deadline=deadline,
                            batch_size=self.batch_size, params=params,
                        )
                except QueryTimeout:
                    if _obs.is_enabled():
                        _obs.registry().inc("query.timeouts")
                    raise
            if not observing:
                return result
            elapsed = time.perf_counter() - start
            rows = _result_rows(result)
            if _obs.is_enabled():
                registry = _obs.registry()
                registry.inc("query.count")
                registry.observe("query.seconds", elapsed)
            if self.slow_queries.enabled:
                logged = self.slow_queries.record(
                    text if text is not None else repr(ast), elapsed, rows
                )
                if logged and _obs.is_enabled():
                    _obs.registry().inc("query.slow")
            if collector is None:
                return result
            stats = collector.finish(elapsed, rows)
            if traced:
                stats.trace = _trace.current_trace()
            if isinstance(result, SelectResult):
                result.stats = stats
            return ExplainAnalysis(stats, result) if analyze else result

    def _front_end(
        self, text: str, language: str, encoding: Optional[str] = None
    ):
        """Parse ``text`` in ``language``; returns ``(ast, label)``.

        PGQL is lowered per Table 3 into a SPARQL AST; its ``label`` is
        the text with a ``pgql[<encoding>]`` prefix, so slow-log and
        trace entries are recognisably PGQL.
        """
        if language == "sparql":
            with _trace.span("parse"):
                return self._parse_query(text), text
        if language != "pgql":
            raise EvaluationError(
                f"unknown query language {language!r}; use 'sparql' or 'pgql'"
            )
        from repro.pgql import parse as _pgql_parse

        resolved = encoding if encoding is not None else self.pgql_encoding
        if resolved is None:
            raise EvaluationError(
                "no PGQL encoding configured; pass encoding='NG'|'SP'|'RF' "
                "or construct the engine with pgql_encoding"
            )
        resolved = resolved.upper()
        with _trace.span("pgql.parse"):
            parsed = _pgql_parse(text)
        with _trace.span("pgql.compile", encoding=resolved):
            ast = self._pgql_compiler(resolved).compile(parsed)
        return ast, f"pgql[{resolved}] {text}"

    def _pgql_compiler(self, encoding: str):
        """Compilers are stateless; cache one per encoding."""
        compiler = self._pgql_compilers.get(encoding)
        if compiler is None:
            from repro.pgql import compiler_for

            compiler = compiler_for(encoding, self.pgql_vocabulary)
            self._pgql_compilers[encoding] = compiler
        return compiler

    def _compiled_for(
        self, ast, model_name: str, store_model, language: str, snapshot
    ):
        """Plan-cache fetch, falling back to a fresh compile; returns
        ``(compiled, params)``.

        The key is the query's shape — :func:`~repro.sparql.plancache.lift`
        turns its constants into slots whose values, ``params``, the
        executor binds — so every query of a cached shape hits, whatever
        its constants, front-end or text.  A miss compiles against the
        pinned snapshot's statistics; entries go stale only when the
        model's statistics epoch moves, never on DML.

        Cache hits/misses/evictions are reported through the metrics
        helpers, so they land both in the process registry (the
        ``plan_cache.*`` counters on ``GET /metrics``) and in the
        per-query collector (``result.stats``) when one is active.
        """
        with _trace.span("plan") as plan_span:
            shape, params = lift(ast)
            key = (shape, model_name)
            epoch = statistics_epoch(store_model)
            cached = self.plan_cache.get(key, epoch)
            plan_span.set("cached", cached is not None)
            if cached is not None:
                _obs.inc("plan_cache.hits")
                return cached, params
            _obs.inc("plan_cache.misses")
            compiled = compile_query(
                shape,
                snapshot,
                store_model,
                model_name,
                union_default_graph=self._union_default,
                filter_pushdown=self._filter_pushdown,
                language=language,
            )
            evicted = self.plan_cache.put(key, epoch, compiled)
            if evicted:
                _obs.inc("plan_cache.evictions", evicted)
            return compiled, params

    def _pin_snapshot(self):
        """Pin the store's latest committed snapshot (lock-free).

        Also surfaces the MVCC health gauges: ``snapshot.age`` (how far
        behind "now" the pinned version was captured) and
        ``snapshot.versions_live`` (distinct versions still pinned by
        in-flight queries — growth here means version hoarding).
        """
        network = self.network
        pin = getattr(network, "snapshot", None)
        if pin is None:  # plain duck-typed stores without MVCC
            return network
        if _trace.is_active():
            with _trace.span("snapshot.pin") as pin_span:
                snapshot = pin()
                pin_span.set("version", snapshot.data_version)
        else:
            snapshot = pin()
        if _obs.is_enabled():
            registry = _obs.registry()
            registry.set_gauge("snapshot.age", snapshot.age())
            registry.set_gauge(
                "snapshot.versions_live", network.live_snapshot_count()
            )
        return snapshot

    # ------------------------------------------------------------------
    # Update API
    # ------------------------------------------------------------------

    def update(
        self,
        text: str,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, int]:
        """Execute an update, optionally under a deadline.

        The deadline (``timeout=`` or the engine-level default) covers
        both the exclusive-lock wait and the update's WHERE evaluation,
        so one long update cannot stall readers unboundedly.  Once an
        operation starts *applying* its changes it runs to completion —
        aborting mid-apply would expose a partial update.
        """
        if self._trace_wanted():
            with _trace.tracing("update"):
                return self._update(text, model, timeout)
        return self._update(text, model, timeout)

    def _update(
        self,
        text: str,
        model: Optional[str],
        timeout: Optional[float],
    ) -> Dict[str, int]:
        limit = self.timeout if timeout is None else timeout
        deadline = deadline_for(limit)
        with _trace.span("parse"):
            with self._parser_lock:
                request = self._parser.parse_update(text)
        executor = UpdateExecutor(
            self.network,
            self._model_name(model),
            union_default_graph=self._union_default,
            filter_pushdown=self._filter_pushdown,
            deadline=deadline,
        )
        try:
            with self._write_locked(deadline):
                # Updates serialize against each other on the write
                # lock; visibility to readers is governed by the MVCC
                # write batch — the whole request commits as ONE new
                # data_version, so concurrent queries see either none
                # or all of its effects (never a half-applied INSERT).
                with self._write_batched():
                    with _trace.span("execute", form="update"):
                        return executor.execute(request)
        except QueryTimeout:
            if _obs.is_enabled():
                _obs.registry().inc("query.timeouts")
            raise

    @contextmanager
    def _write_batched(self):
        """One MVCC commit for the whole update request (when the
        store supports batching)."""
        batch = getattr(self.network, "write_batch", None)
        if batch is None:
            yield
            return
        with batch():
            yield

    @contextmanager
    def _write_locked(self, deadline: Optional[Deadline]):
        """Hold the store's write lock for one update execution.

        Like :meth:`_read_locked`, the deadline keeps ticking while the
        update waits behind readers: an update that cannot get the lock
        within its budget times out in the queue.
        """
        lock = getattr(self.network, "lock", None)
        if lock is None:
            yield
            return
        wait = None if deadline is None else max(deadline.remaining(), 0.0)
        if not lock.acquire_write(wait):
            raise QueryTimeout(
                deadline.timeout, time.monotonic() - deadline.started_at
            )
        try:
            yield
        finally:
            lock.release_write()

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------

    def explain(
        self,
        text: str,
        model: Optional[str] = None,
        analyze: bool = False,
        trace: bool = False,
        language: str = "sparql",
    ):
        """Access plan of the query (Table 5 style).

        One line per triple-pattern and path step of the plan the query
        runs — the plan cached for its shape, compiled now on a miss —
        in execution order, with this text's constants: the pattern,
        its bound positions, the chosen semantic network index, scan
        kind and join method.

        With ``analyze=True`` the query is *executed* and an
        :class:`repro.obs.ExplainAnalysis` is returned instead, each
        step annotated with actual rows, index scan counts and wall
        time next to the planner's estimates (EXPLAIN ANALYZE); with
        ``trace=True`` it also carries the span tree.
        """
        if analyze:
            return self._read(text, model, None, language, analyze=True,
                              trace=trace)
        return self._read(text, model, None, language, render="access")

    def explain_plan(
        self,
        text: str,
        model: Optional[str] = None,
        format: str = "text",
        language: str = "sparql",
    ):
        """Pipeline plan description: logical, optimized and physical.

        The plan is the one :meth:`explain` reads, not run.
        ``format="text"`` returns indented tree lines (the shape
        ``repro explain`` prints); ``format="json"`` returns a
        JSON-ready dict with ``logical``, ``optimized`` and
        ``physical`` plan trees.
        """
        if format not in ("text", "json"):
            raise ValueError("format must be 'text' or 'json'")
        return self._read(text, model, None, language, render=format)

    def _render(
        self, render: str, compiled, params, language: str, store_model,
        snapshot,
    ):
        terms = compiled.root.constants.bind(params)
        if render == "access":
            return access_plan(
                compiled.root, store_model, snapshot.lookup_term, terms
            )
        if render == "json":
            return {
                "form": compiled.form,
                "language": language,
                "model": compiled.model_name,
                "variables": list(compiled.variables),
                "batch_size": self.batch_size,
                "logical": _algebra.to_dict(compiled.logical, params),
                "optimized": _algebra.to_dict(compiled.optimized, params),
                "physical": physical_to_dict(compiled.root, terms),
            }
        lines: List[str] = [f"Query form: {compiled.form}"]
        if language != "sparql":
            lines.append(f"Query language: {language}")
        for title, tree in (
            ("Logical plan:", _algebra.render(compiled.logical, params)),
            ("Optimized plan:", _algebra.render(compiled.optimized, params)),
            (
                f"Physical plan (batch={self.batch_size}):",
                render_physical(compiled.root, terms),
            ),
        ):
            lines.append(title)
            lines.extend("  " + line for line in tree.splitlines())
        return lines

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _trace_wanted(self) -> bool:
        """Should this call open a *new* trace on the current thread?

        True when tracing is requested (engine flag or process-wide
        default) and no trace is already active — a caller-owned trace
        (e.g. the HTTP server's per-request trace) is joined, not
        shadowed.
        """
        return (self.trace or _trace.is_enabled()) and not _trace.is_active()

    def _parse_query(self, text: str):
        with self._parser_lock:
            return self._parser.parse_query(text)

    def _model_name(self, model: Optional[str]) -> str:
        name = model or self._default_model
        if name is None:
            raise EvaluationError(
                "no model specified and no default model configured"
            )
        return name


def _result_rows(result) -> int:
    """Result cardinality across query forms (for stats and slow log)."""
    if isinstance(result, SelectResult):
        return len(result.rows)
    if isinstance(result, bool):
        return int(result)
    if isinstance(result, list):
        return len(result)
    return 0
