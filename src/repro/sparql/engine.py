"""The public SPARQL engine facade.

Analogous to Oracle's SEM_MATCH entry point: queries are posed against
a named semantic model (base or virtual), with engine-level prefix
declarations and Oracle-style union default-graph semantics by default.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.obs import ExplainAnalysis, QueryCollector, SlowQueryLog
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.rdf.quad import Triple
from repro.sparql.ast import AskQuery, ConstructQuery, SelectQuery
from repro.sparql import algebra as _algebra
from repro.sparql.deadline import Deadline, deadline_for
from repro.sparql.errors import EvaluationError, QueryTimeout
from repro.sparql.executor import CompiledQuery, compile_query
from repro.sparql.executor import execute as _execute_compiled
from repro.sparql.parser import Parser
from repro.sparql.physical import (
    access_plan,
    physical_to_dict,
    render_physical,
)
from repro.sparql.plancache import PlanCache, lift, statistics_epoch
from repro.sparql.results import SelectResult
from repro.sparql.update import UpdateExecutor


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
    ):
        """Parse and run any query form (SELECT / ASK / CONSTRUCT)."""
        if self._trace_wanted():
            with _trace.tracing("query"):
                return self._parse_and_run(text, model, timeout)
        return self._parse_and_run(text, model, timeout)

    def _parse_and_run(
        self, text: str, model: Optional[str], timeout: Optional[float]
    ):
        # The snapshot is pinned before parsing: everything after this
        # line — plan-cache lookup, compilation, execution — sees one
        # immutable data_version, no matter what writers do meanwhile.
        snapshot = self._pin_snapshot()
        with _trace.span("parse"):
            ast = self._parse_query(text)
        return self.run_ast(
            ast, model, text=text, timeout=timeout, snapshot=snapshot
        )

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
        if self._trace_wanted():
            with _trace.tracing("query"):
                return self._run_ast(
                    ast, model, collector, text, timeout, snapshot
                )
        return self._run_ast(ast, model, collector, text, timeout, snapshot)

    # ------------------------------------------------------------------
    # PGQL front-end
    # ------------------------------------------------------------------

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
        the identical pinned-snapshot pipeline as :meth:`query` — plan
        cache (one entry per query shape, shared with SPARQL queries of
        the same shape), optimizer, EXPLAIN/trace and batched execution
        included.
        """
        if self._trace_wanted():
            with _trace.tracing("query"):
                return self._pgql_parse_and_run(text, model, timeout, encoding)
        return self._pgql_parse_and_run(text, model, timeout, encoding)

    def _pgql_parse_and_run(
        self,
        text: str,
        model: Optional[str],
        timeout: Optional[float],
        encoding: Optional[str],
    ):
        # Same contract as _parse_and_run: pin the snapshot before
        # translation so the whole request sees one data_version.
        snapshot = self._pin_snapshot()
        ast, label = self._pgql_translate(text, encoding)
        return self.run_ast(
            ast, model, text=label, timeout=timeout, snapshot=snapshot
        )

    def _pgql_translate(self, text: str, encoding: Optional[str]):
        """Parse + compile PGQL text; returns ``(sparql_ast, label)``.

        ``label`` is the text with a ``pgql[<encoding>]`` prefix, so
        slow-log/trace entries are recognisably PGQL.
        """
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

    def _run_ast(
        self,
        ast,
        model: Optional[str],
        collector: Optional[QueryCollector],
        text: Optional[str],
        timeout: Optional[float],
        snapshot=None,
    ):
        limit = self.timeout if timeout is None else timeout
        deadline = deadline_for(limit)
        if snapshot is None:
            snapshot = self._pin_snapshot()
        try:
            return self._run_ast_pinned(
                ast, model, collector, text, deadline, snapshot
            )
        except QueryTimeout:
            if _obs.is_enabled():
                _obs.registry().inc("query.timeouts")
            raise

    def _run_ast_pinned(
        self,
        ast,
        model: Optional[str],
        collector: Optional[QueryCollector],
        text: Optional[str],
        deadline: Optional[Deadline],
        snapshot,
    ):
        """Run one query entirely against a pinned MVCC snapshot.

        No read lock is taken anywhere on this path: the snapshot's
        copy-on-write arrays make it immune to concurrent writers, so
        queries never wait behind updates (and vice versa).
        """
        model_name = self._model_name(model)
        store_model = snapshot.model(model_name)
        traced = _trace.is_active()
        if collector is None and (self.collect_stats or traced):
            # A trace implies a collector: the span tree rides back to
            # the caller on ``result.stats``.
            collector = QueryCollector()
        observing = (
            collector is not None
            or self.slow_queries.enabled
            or _obs.is_enabled()
        )
        if not observing:
            return self._run_pipeline(
                ast, model_name, store_model, text, None, deadline, traced,
                snapshot,
            )
        start = time.perf_counter()
        if collector is not None:
            with _obs.collect(collector):
                result = self._run_pipeline(
                    ast, model_name, store_model, text, collector,
                    deadline, traced, snapshot,
                )
        else:
            result = self._run_pipeline(
                ast, model_name, store_model, text, None, deadline, traced,
                snapshot,
            )
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
        if collector is not None and isinstance(result, SelectResult):
            result.stats = collector.finish(elapsed, rows)
            if traced:
                result.stats.trace = _trace.current_trace()
        return result

    def _run_pipeline(
        self,
        ast,
        model_name: str,
        store_model,
        text: Optional[str],
        collector: Optional[QueryCollector],
        deadline: Optional[Deadline],
        traced: bool,
        snapshot,
    ):
        """Fetch-or-compile a plan, then run it through the executor."""
        compiled, params = self._compiled_for(
            ast, model_name, store_model, text, snapshot
        )
        if traced:
            with _trace.span("execute", form=type(ast).__name__):
                return self._execute(
                    compiled, params, snapshot, store_model, collector,
                    deadline,
                )
        return self._execute(
            compiled, params, snapshot, store_model, collector, deadline
        )

    def _execute(
        self,
        compiled: CompiledQuery,
        params,
        snapshot,
        store_model,
        collector: Optional[QueryCollector],
        deadline: Optional[Deadline],
    ):
        return _execute_compiled(
            compiled,
            snapshot,
            store_model,
            collector=collector,
            deadline=deadline,
            batch_size=self.batch_size,
            params=params,
        )

    def _compiled_for(
        self, ast, model_name: str, store_model, text: Optional[str], snapshot
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
                language=(
                    "pgql"
                    if text is not None and text.startswith("pgql[")
                    else "sparql"
                ),
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
        snapshot = pin()
        if _obs.is_enabled():
            registry = _obs.registry()
            registry.set_gauge("snapshot.age", snapshot.age())
            registry.set_gauge(
                "snapshot.versions_live", network.live_snapshot_count()
            )
        if _trace.is_active():
            with _trace.span(
                "snapshot.pin", version=snapshot.data_version
            ):
                pass
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
    ):
        """Access plan of the compiled query (Table 5 style).

        One line per triple-pattern and path step of the physical plan
        the query runs, in execution order: the pattern, its bound
        positions, the chosen semantic network index, scan kind and
        join method.

        With ``analyze=True`` the query is *executed* and an
        :class:`repro.obs.ExplainAnalysis` is returned instead, each
        step annotated with actual rows, index scan counts and wall
        time next to the planner's estimates (EXPLAIN ANALYZE).
        """
        if analyze:
            return self.explain_analyze(text, model, trace=trace)
        ast = self._parse_query(text)
        if not isinstance(ast, (SelectQuery, AskQuery, ConstructQuery)):
            raise EvaluationError("cannot explain this form")
        compiled, store_model = self._compile_live(ast, model, "sparql")
        return access_plan(
            compiled.root, store_model, self.network.lookup_term
        )

    def explain_analyze(
        self,
        text: str,
        model: Optional[str] = None,
        trace: bool = False,
    ) -> ExplainAnalysis:
        """Execute the query and report per-operator actuals.

        With ``trace=True`` (or tracing enabled/already active) the
        analysis also carries the span tree: ``analysis.trace`` and an
        indented rendering appended to ``analysis.lines``.
        """
        if (trace or self._trace_wanted()) and not _trace.is_active():
            with _trace.tracing("query") as span_tree:
                analysis = self._explain_analyze(text, model)
            analysis.stats.trace = span_tree
            return analysis
        return self._explain_analyze(text, model)

    def _explain_analyze(
        self, text: str, model: Optional[str]
    ) -> ExplainAnalysis:
        with _trace.span("parse"):
            ast = self._parse_query(text)
        collector = QueryCollector()
        start = time.perf_counter()
        result = self.run_ast(ast, model, collector=collector, text=text)
        elapsed = time.perf_counter() - start
        stats = collector.finish(elapsed, _result_rows(result))
        if _trace.is_active():
            stats.trace = _trace.current_trace()
        return ExplainAnalysis(stats, result)

    def explain_plan(
        self,
        text: str,
        model: Optional[str] = None,
        format: str = "text",
    ):
        """Pipeline plan description: logical, optimized and physical.

        Compiles the query through the full layered pipeline without
        running it.  ``format="text"`` returns indented tree lines (the
        shape ``repro explain`` prints); ``format="json"`` returns a
        JSON-ready dict with ``logical``, ``optimized`` and
        ``physical`` plan trees.
        """
        ast = self._parse_query(text)
        return self._explain_plan_ast(ast, model, format, "sparql")

    def explain_pgql_plan(
        self,
        text: str,
        model: Optional[str] = None,
        format: str = "text",
        encoding: Optional[str] = None,
    ):
        """:meth:`explain_plan` for a PGQL query: compiles the MATCH
        through the Table 3 lowering and the shared pipeline without
        running it."""
        ast, _ = self._pgql_translate(text, encoding)
        return self._explain_plan_ast(ast, model, format, "pgql")

    def _compile_live(self, ast, model: Optional[str], language: str):
        """Compile against the live network (EXPLAIN: nothing runs);
        returns ``(compiled, store_model)``."""
        model_name = self._model_name(model)
        store_model = self.network.model(model_name)
        compiled = compile_query(
            ast,
            self.network,
            store_model,
            model_name,
            union_default_graph=self._union_default,
            filter_pushdown=self._filter_pushdown,
            language=language,
        )
        return compiled, store_model

    def _explain_plan_ast(
        self, ast, model: Optional[str], format: str, language: str
    ):
        if format not in ("text", "json"):
            raise ValueError("format must be 'text' or 'json'")
        compiled, _ = self._compile_live(ast, model, language)
        if format == "json":
            return {
                "form": compiled.form,
                "language": compiled.language,
                "model": compiled.model_name,
                "variables": list(compiled.variables),
                "batch_size": self.batch_size,
                "logical": _algebra.to_dict(compiled.logical),
                "optimized": _algebra.to_dict(compiled.optimized),
                "physical": physical_to_dict(compiled.root),
            }
        lines: List[str] = [f"Query form: {compiled.form}"]
        if language != "sparql":
            lines.append(f"Query language: {language}")
        lines.append("Logical plan:")
        lines.extend(
            "  " + line for line in _algebra.render(compiled.logical).splitlines()
        )
        lines.append("Optimized plan:")
        lines.extend(
            "  " + line
            for line in _algebra.render(compiled.optimized).splitlines()
        )
        lines.append(f"Physical plan (batch={self.batch_size}):")
        lines.extend(
            "  " + line for line in render_physical(compiled.root).splitlines()
        )
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
