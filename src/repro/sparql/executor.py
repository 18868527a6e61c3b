"""The thin executor driving the layered pipeline.

``compile_query`` lowers an AST through the logical algebra
(:mod:`repro.sparql.algebra`), the rewrite rules
(:mod:`repro.sparql.optimize`) and the physical compiler
(:mod:`repro.sparql.physical`) into a :class:`CompiledQuery`;
``execute`` runs a compiled query against the store and shapes the
result per query form (SELECT / ASK / CONSTRUCT / DESCRIBE).

Compiled queries are immutable and reusable.  The engine compiles the
*shape* of a query — its constants lifted to
:class:`~repro.sparql.ast.Param` slots — caches it per shape (see
:mod:`repro.sparql.plancache`), and binds the lifted values at
``execute(..., params=)``: each run resolves the plan's constant table
(:class:`~repro.sparql.physical.Constants`) once, against the snapshot
it reads.  One compiled query may run concurrently with different
bindings.  A query compiled from a concrete AST has no lifted slots and
runs without ``params``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.obs import metrics as _obs
from repro.rdf.quad import Quad, Triple
from repro.rdf.terms import Term
from repro.sparql import algebra as A
from repro.sparql.ast import (
    AskQuery,
    ConstructQuery,
    DescribeQuery,
    GroupPattern,
    QuadPattern,
    Query,
    SelectQuery,
    TriplePattern,
)
from repro.sparql.errors import EvaluationError
from repro.sparql.optimize import optimize
from repro.sparql.physical import (
    ExecContext,
    PhysicalOp,
    ProjectOp,
    SliceOp,
    compile_plan,
)
from repro.sparql.results import SelectResult


@dataclass
class CompiledQuery:
    """One query, compiled end to end through the pipeline."""

    form: str  # "select" | "ask" | "construct" | "describe"
    ast: Query
    logical: A.Plan
    optimized: A.Plan
    root: PhysicalOp
    #: SELECT output variable order (empty for other forms).
    variables: Tuple[str, ...]
    #: Whether lazy row-at-a-time execution can terminate early for
    #: this plan (a Slice in the tree, or the ASK first-row check).
    #: Otherwise the executor runs the materialized path, which has no
    #: per-row generator dispatch cost.
    streaming: bool
    model_name: str
    #: Network data version the plan's statistics were read at.  The
    #: plan itself holds no data: it runs against any snapshot.
    data_version: int
    #: Source language of the query the plan was compiled for:
    #: ``"sparql"`` or ``"pgql"`` (the PGQL front-end lowers to the same
    #: AST, so a cached plan serves both; this tags EXPLAIN output).
    language: str = "sparql"
    #: DESCRIBE targets: a variable, or the constant slot of a resource.
    targets: Tuple = ()


def _protected_variables(ast: Query) -> frozenset:
    """Variables with uses the logical plan cannot see (kept alive
    through dead-code elimination)."""
    if isinstance(ast, ConstructQuery):
        found: Set[str] = set()
        for template in ast.template:
            for part in (template.subject, template.predicate, template.object):
                if isinstance(part, str):
                    found.add(part)
        return frozenset(found)
    if isinstance(ast, DescribeQuery):
        return frozenset(t for t in ast.targets if isinstance(t, str))
    return frozenset()


def compile_query(
    ast: Query,
    network,
    model,
    model_name: str,
    union_default_graph: bool = True,
    filter_pushdown: bool = True,
    language: str = "sparql",
) -> CompiledQuery:
    if isinstance(ast, SelectQuery):
        form = "select"
        logical = A.lower_select(ast, pushdown=filter_pushdown)
    elif isinstance(ast, AskQuery):
        form = "ask"
        logical = A.lower_group(ast.where, pushdown=filter_pushdown)
    elif isinstance(ast, ConstructQuery):
        form = "construct"
        logical = A.lower_group(ast.where, pushdown=filter_pushdown)
    elif isinstance(ast, DescribeQuery):
        form = "describe"
        where = ast.where if ast.where is not None else GroupPattern(())
        logical = A.lower_group(where, pushdown=filter_pushdown)
    else:
        raise EvaluationError(f"unsupported query form {type(ast).__name__}")
    optimized = optimize(
        logical,
        filter_pushdown=filter_pushdown,
        protected=_protected_variables(ast),
    )
    root = compile_plan(
        optimized, network, model, union_default_graph, filter_pushdown
    )
    targets: Tuple = ()
    if form == "describe":
        targets = tuple(
            t if isinstance(t, str) else root.constants.slot(t)
            for t in ast.targets
        )
    variables: Tuple[str, ...] = ()
    if form == "select":
        node = root
        while not isinstance(node, ProjectOp):
            node = node.input
        variables = node.names
    return CompiledQuery(
        form=form,
        ast=ast,
        logical=logical,
        optimized=optimized,
        root=root,
        variables=variables,
        streaming=form == "ask" or _has_slice(root),
        model_name=model_name,
        data_version=network.data_version,
        language=language,
        targets=targets,
    )


def _has_slice(op: PhysicalOp) -> bool:
    if isinstance(op, SliceOp):
        return True
    return any(_has_slice(child) for child in op.children())


def execute(
    compiled: CompiledQuery,
    network,
    model,
    collector=None,
    deadline=None,
    batch_size: int = 1024,
    params=(),
):
    """Run a compiled query; the return type depends on the form.

    ``params`` binds the plan's lifted slots by index (a plan compiled
    from a concrete AST has none); the context resolves every constant
    of the plan once, here, after the caller pinned ``network``.
    """
    if deadline is not None:
        deadline.check()
    ctx = ExecContext(
        network,
        model,
        collector=collector,
        deadline=deadline,
        streaming=compiled.streaming,
        batch_size=batch_size,
        constants=compiled.root.constants,
        params=params,
    )
    if compiled.form == "select":
        return _execute_select(compiled, ctx)
    if compiled.form == "ask":
        return _execute_ask(compiled, ctx)
    if compiled.form == "construct":
        return _execute_construct(compiled, ctx)
    return _execute_describe(compiled, ctx)


def _execute_select(compiled: CompiledQuery, ctx: ExecContext) -> SelectResult:
    # Bulk decode: direct list indexing into the append-only term
    # table instead of a bounds-checking method call per cell.
    table = ctx.values.term_table()
    decoded: List[Tuple[Optional[Term], ...]] = []
    batches = 0
    for rows, mults in compiled.root.run_batches(ctx):
        batches += 1
        size = len(table)
        if mults is None:
            if not rows:
                continue
            if not rows[0]:
                # Zero-width rows (no projected variables) decode to
                # themselves; zip(*rows) would swallow them.
                decoded.extend(rows)
                continue
            # Columnar decode: transpose once, decode each column in a
            # flat list comprehension, zip the decoded columns back
            # into rows — no per-row generator frames.
            decoded.extend(
                zip(
                    *(
                        [
                            table[v] if v is not None and 0 < v < size else None
                            for v in col
                        ]
                        for col in zip(*rows)
                    )
                )
            )
            continue
        for row, mult in zip(rows, mults):
            terms = tuple(
                table[v] if v is not None and 0 < v < size else None
                for v in row
            )
            # Bag semantics: a row standing for N identical solutions
            # expands to N result rows.
            decoded.extend([terms] * mult)
    if _obs.is_active():
        _obs.inc("exec.batches", batches)
    return SelectResult(list(compiled.variables), decoded)


def _execute_ask(compiled: CompiledQuery, ctx: ExecContext) -> bool:
    if ctx.instrumented:
        # Materialize like the reference evaluator so operator records
        # and counters are identical under EXPLAIN ANALYZE.
        return bool(list(compiled.root.run(ctx)))
    return next(compiled.root.run(ctx), None) is not None


def _execute_construct(
    compiled: CompiledQuery, ctx: ExecContext
) -> List[Triple]:
    query = compiled.ast
    index = {v: i for i, v in enumerate(compiled.root.schema)}
    produced: List[Triple] = []
    seen: Set[Triple] = set()
    for row, _ in compiled.root.run(ctx):
        for template in query.template:
            triple = instantiate(template, row, index, ctx.values.term)
            if triple is not None and triple not in seen:
                seen.add(triple)
                produced.append(triple)
    return produced


def _execute_describe(
    compiled: CompiledQuery, ctx: ExecContext
) -> List[Triple]:
    target_ids = [
        ctx.ids[t] for t in compiled.targets
        if not isinstance(t, str) and ctx.ids[t] is not None
    ]
    variables = [t for t in compiled.targets if isinstance(t, str)]
    if variables:
        schema = compiled.root.schema
        rows = [row for row, _ in compiled.root.run(ctx)]
        for variable in variables:
            if variable in schema:
                position = schema.index(variable)
                target_ids.extend(
                    row[position]
                    for row in rows
                    if row[position] is not None
                )
    described: List[Triple] = []
    seen: Set[Triple] = set()
    term_of = ctx.values.term
    for target in dict.fromkeys(target_ids):
        for s, p, o, _ in ctx.model.scan((target, None, None, None)):
            triple = Triple(term_of(s), term_of(p), term_of(o))
            if triple not in seen:
                seen.add(triple)
                described.append(triple)
    return described


def instantiate(
    template: TriplePattern | QuadPattern,
    row: Tuple,
    index: Dict[str, int],
    term_of,
) -> Optional[Triple | Quad]:
    """Ground a CONSTRUCT triple template (a :class:`Triple`) or an
    update quad template (a :class:`Quad`) against one solution row.

    ``None`` when a template variable is unbound in the row or the
    grounded statement is not valid RDF (e.g. a literal subject).
    """
    parts = [template.subject, template.predicate, template.object]
    is_quad = isinstance(template, QuadPattern)
    if is_quad:
        parts.append(template.graph)  # None: the default graph
    terms = []
    for part in parts:
        if isinstance(part, str):
            position = index.get(part)
            value = None if position is None else row[position]
            if value is None or value <= 0:
                return None
            part = term_of(value)
        terms.append(part)
    try:
        return Quad(*terms) if is_quad else Triple(*terms)
    except Exception:
        return None
