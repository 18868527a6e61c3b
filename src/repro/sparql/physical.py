"""Physical operators: the pull-based execution layer.

Each operator is a node in a physical plan tree compiled from the
logical algebra (:mod:`repro.sparql.algebra`).  There is **one
execution contract**: an operator implements ``run_batches(ctx)``,
which yields *batches* — ``(rows, mults)`` with rows as tuples of term
IDs (``None`` for unbound), exactly like the reference evaluator's
relation rows (:mod:`repro.testing.reference`), and ``mults is None``
meaning "every multiplicity is 1".  ``PhysicalOp.run`` (``(row,
multiplicity)`` pairs) is defined once, as the flatten of
``run_batches``.  The operator loops are ports of the reference
evaluator's loops, so the pipeline is multiset-identical to it.  Property
paths are the exception: they arrive lowered to pattern steps
(:func:`repro.sparql.algebra.lower_path`) and closure steps
(:class:`PathClosureOp`), while the evaluator walks them with its own
row-at-a-time walker, so the differential tests compare two
implementations.

``EXISTS`` is not a separate operator: :class:`Compiler` compiles each
EXISTS group into a sub-plan whose leaf is a one-row VALUES table
seeded with the outer row's bindings at run time
(:class:`CompiledExists`), and the shared expression evaluator's
``exists=`` hook runs it until its first row.

**Constants.**  A plan holds no term ID of a query constant.  The
compiler numbers every constant an operator reads at run time — each
lifted :class:`~repro.sparql.ast.Param`, predicates and other pattern
terms, ``GRAPH <iri>``, sargable seeds, ``?v = c`` filters, closure
link predicates, DESCRIBE targets — in one table per plan
(:class:`Constants`).  :class:`ExecContext` resolves the table with
one lookup pass per run, against the pinned snapshot, into
``ctx.terms`` / ``ctx.ids``; operators read their constants there by
slot index, so one plan serves every binding of its shape,
concurrently, across DML.  Values that change per *row* — an EXISTS
group's outer row, a closure's frontier — reach a sub-plan through
its seed leaf instead (``ctx.seeds``, :meth:`Compiler.seeded`).

Every operator has one execution body.  What differs between queries
is the **input policy**, chosen per query by the executor and applied
by the shared helpers :func:`_input` / :func:`_input_chunks`:

* **drain-then-decide** (run-to-completion queries, and always when a
  stats collector is attached — EXPLAIN ANALYZE, tracing): a
  pattern/path/filter/join step first drains its whole input, so the
  pattern step decides NLJ vs hash join on the true input size like
  the reference evaluator, and — when instrumented — :func:`_observed`
  reports ``rows_in``/``rows_out`` operator records and ``op.*`` trace
  spans.

* **adaptive** (requested by the executor when early termination can
  pay: a Slice in the plan, or ASK): the same bodies pull their input
  lazily, batch by batch, with output batches ramping ``1, 2, 4, …``,
  so a ``StreamingSlice`` above a scan chain stops pulling — and stops
  scanning the store — as soon as LIMIT rows are produced.  The
  pattern step probes nested-loop until it has seen
  ``HASH_JOIN_MIN_ROWS`` input rows and only then decides on the
  remaining total.

Why two policies and not just the lazy one: the adaptive cutover
NLJ-probes the first ~4 000 input rows that drain-then-decide would
hash-join.  Forcing it on run-to-completion plans (interleaved A/B on
the benchmark's 200-ego graph) makes EQ7 2.03× slower on SP and 1.54×
on NG.  The benchmark has traffic on both sides of the choice (ASK and
LIMIT point lookups stream; every analytics and HTTP text drains), so
the policy fork stays and only its mechanism is shared.

A BGP whose join graph has a cycle is the one multiway step: it runs as
a :class:`TrieJoinOp`, which reads each pattern whole under either
policy and binds one variable at a time.

Trace span names are the physical operator names: ``op.IndexScan``,
``op.IndexNestedLoopJoin``, ``op.HashJoin``, ``op.CartesianProduct``,
``op.TrieJoin``, ``op.PathClosure``, ``op.Filter``.
"""

from __future__ import annotations

import heapq
import weakref
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain as _chain, product, repeat as _repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.rdf.terms import Term
from repro.sparql import algebra as A
from repro.sparql import functions as F
from repro.sparql.ast import (
    AggregateExpr,
    ExistsExpr,
    Expression,
    FunctionExpr,
    GroupPattern,
    OrderCondition,
    Param,
    Projection,
    TermExpr,
    TriplePattern,
    VarExpr,
    bound,
    contains_aggregate,
    pattern_variables,
)
from repro.sparql.errors import EvaluationError, ExpressionError
from repro.sparql.expr import (
    ExpressionEvaluator,
    Reversed,
    constant_equality,
    contains_exists,
    group_variables,
    internal_checks,
    map_children,
    passes_checks,
    row_getter,
)
from repro.sparql.optimize import optimize
from repro.sparql.plan import (
    HASH_JOIN_MIN_ROWS,
    EncodedPattern,
    GraphContext,
    decide_join,
    describe_bound,
    order_patterns,
)
from repro.sparql.unparse import render_expr, render_triple

Row = Tuple[Optional[int], ...]
Pair = Tuple[Row, int]
#: One vector of solutions: ``(rows, mults)``.  ``mults is None`` means
#: every row has multiplicity 1 (the common case — scans and DISTINCT
#: produce it), so downstream operators skip multiplicity bookkeeping.
Batch = Tuple[List[Row], Optional[List[int]]]

#: Estimate stand-in for a constant absent from the store: it matches
#: no index entry, so its pattern estimates at 0 rows.
_UNSEEN = -1

#: First batch size on the streaming path; doubles per batch up to the
#: configured batch size, so a Slice or ASK right above a scan chain
#: stops the scans after its first row, exactly like the old
#: row-at-a-time iterators did (DuckDB-style ramp-up).
_RAMP_START = 1


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------


class Constants:
    """The run-time constants of one compiled plan, numbered by slot.

    Each distinct constant gets one slot: a term, or a lifted
    :class:`Param` standing for the value a run binds to it.  The
    compiler numbers them (:meth:`slot`); :class:`ExecContext` resolves
    the whole table once per run, and freezes it: an EXISTS variant
    compiled during a run compiles the same group as the variant
    compiled with the plan, so it only reads slots, and a new constant
    fails its compile instead of indexing past a run's ``ids``.
    """

    def __init__(self):
        self.terms: List = []
        self._slots: Dict = {}
        self.frozen = False

    def slot(self, constant) -> int:
        slot = self._slots.get(constant)
        if slot is None:
            if self.frozen:
                raise RuntimeError(
                    f"constant {constant!r} is not in the compiled plan"
                )
            slot = self._slots[constant] = len(self.terms)
            self.terms.append(constant)
        return slot

    def bind(self, params: Sequence[Term]) -> List:
        """Each slot's term for one request (:func:`bound`): what a run
        resolves and what EXPLAIN renders."""
        return [bound(constant, params) for constant in self.terms]


class ExecContext:
    """Everything the operators need at run time.

    One context per query execution; the per-execution state (the
    run's constants, the current EXISTS and closure seed rows) lives
    here so a cached plan can be executed many times, also
    concurrently with different bindings.
    """

    def __init__(
        self,
        network,
        model,
        constants: Constants,
        collector=None,
        deadline=None,
        streaming: bool = True,
        batch_size: int = 1024,
        params: Sequence[Term] = (),
    ):
        self.network = network
        self.values = network.values
        self.model = model
        #: This run's term of each constant slot of the plan (a lifted
        #: slot's from ``params``), and its term ID (``None`` when absent
        #: from the store): one lookup pass per run, against the
        #: snapshot this run reads.
        self.terms = constants.bind(params)
        self.ids = list(map(self.values.lookup, self.terms))
        constants.frozen = True
        self.collector = collector
        self.deadline = deadline
        self.tick = None if deadline is None else deadline.tick
        #: Instrumented runs report collector records / trace spans
        #: per operator (:func:`_observed`).
        self.instrumented = collector is not None
        #: The input policy.  Lazy pulling only pays when something
        #: above can stop early (a Slice, or ASK's first-row check);
        #: run-to-completion queries drain each step's input first so
        #: join decisions see true totals, and instrumentation always
        #: drains (operator records come out in evaluation order).
        self.streaming = streaming
        self.materialize = self.instrumented or not streaming
        #: Target rows per batch on the vectorized path.
        self.batch_size = max(1, batch_size)
        #: Shared scalar/aggregate semantics; EXISTS runs the compiled
        #: sub-plan the expression carries (:class:`CompiledExists`).
        #: The evaluator must not refer back to the context: a cycle
        #: would keep the pinned snapshot alive until the next garbage
        #: collection.
        self.expr = ExpressionEvaluator(exists=_ExistsHook(self))
        #: Seed leaf (EXISTS, closure) -> the table it emits on its next
        #: run.  Separate from ``ids`` because these values change per
        #: outer row or frontier round, not per run.
        self.seeds: Dict["ValuesOp", List[Row]] = {}

    def chunk_sizes(self) -> Iterator[int]:
        """Per-operator output batch size sequence.

        Drained runs use the configured batch size throughout; lazy
        runs ramp up from a small first vector so early termination
        (Slice/ASK) keeps its short time-to-first-row.
        """
        if self.materialize:
            return _repeat(self.batch_size)
        return _ramp_sizes(self.batch_size)


class _ExistsHook:
    """The expression evaluator's ``exists=`` callback: runs a
    :class:`CompiledExists` in its (weakly held) execution context."""

    __slots__ = ("_ctx",)

    def __init__(self, ctx: ExecContext):
        self._ctx = weakref.ref(ctx)

    def __call__(self, expression: "CompiledExists", get) -> Term:
        holds = expression.holds(self._ctx(), get)
        return F.boolean(holds != expression.negated)


# ----------------------------------------------------------------------
# Plan constants
# ----------------------------------------------------------------------


def _seen_id(part, lookup):
    """A pattern or graph part for estimates: a constant's term ID (a
    slot's first-seen value), :data:`_UNSEEN` when absent from the
    store; variables and graph IDs pass through."""
    if part is None or isinstance(part, (str, int)):
        return part
    term_id = lookup(part.term if isinstance(part, Param) else part)
    return _UNSEEN if term_id is None else term_id


def _graph_slot(graph: GraphContext, constants: Constants) -> Optional[int]:
    """The slot of a ``GRAPH <iri>`` constant; ``None`` for any graph,
    the default graph (ID 0) or a graph variable."""
    if graph is None or isinstance(graph, (str, int)):
        return None
    return constants.slot(graph)


# ----------------------------------------------------------------------
# Batch plumbing
# ----------------------------------------------------------------------


def _ramp_sizes(limit: int) -> Iterator[int]:
    size = _RAMP_START if limit > _RAMP_START else limit
    while True:
        yield size
        size = min(size * 2, limit)


def _flatten(batches: Iterable[Batch]) -> Iterator[Pair]:
    """Batches back to ``(row, mult)`` pairs."""
    for rows, mults in batches:
        if mults is None:
            for row in rows:
                yield row, 1
        else:
            yield from zip(rows, mults)


def _sliced(rows: List[Row], mults, sizes: Iterator[int]) -> Iterator[Batch]:
    """``rows`` (with ``mults``) cut into batches of the ``sizes``."""
    start = 0
    while start < len(rows):
        stop = start + next(sizes)
        yield rows[start:stop], None if mults is None else mults[start:stop]
        start = stop


def _batch_rows(batches: Iterable[Batch]) -> int:
    return sum(len(rows) for rows, _ in batches)


def _select_rows(
    batches: Iterable[Batch], keep, tick=None
) -> Iterator[Batch]:
    """The rows of each batch that pass ``keep(row)``, one pass per
    batch (``tick``: a deadline tick per batch)."""
    for rows, mults in batches:
        if tick is not None:
            tick()
        if mults is None:
            kept = [row for row in rows if keep(row)]
            if kept:
                yield kept, None
            continue
        kept = []
        kept_mults: List[int] = []
        for row, mult in zip(rows, mults):
            if keep(row):
                kept.append(row)
                kept_mults.append(mult)
        if kept:
            yield kept, kept_mults


class _BatchBuilder:
    """Accumulates output rows for a batch, tracking multiplicities
    lazily: the ``mults`` list exists only once some row's multiplicity
    differs from 1.  ``sizes`` (:meth:`ExecContext.chunk_sizes`) gives
    the target size of each successive batch."""

    __slots__ = ("rows", "mults", "sizes", "target")

    def __init__(self, sizes: Iterator[int]):
        self.rows: List[Row] = []
        self.mults: Optional[List[int]] = None
        self.sizes = sizes
        self.target = next(sizes)

    def __len__(self) -> int:
        return len(self.rows)

    def full(self) -> bool:
        return len(self.rows) >= self.target

    def add_repeat(self, rows: List[Row], mult: int) -> None:
        """Extend with rows sharing one multiplicity."""
        if mult != 1 and self.mults is None:
            self.mults = [1] * len(self.rows)
        self.rows.extend(rows)
        if self.mults is not None:
            self.mults.extend([mult] * len(rows))

    def add(self, row: Row, mult: int) -> None:
        if mult != 1 and self.mults is None:
            self.mults = [1] * len(self.rows)
        self.rows.append(row)
        if self.mults is not None:
            self.mults.append(mult)

    def flush(self) -> Batch:
        batch = (self.rows, self.mults)
        self.rows = []
        self.mults = None
        self.target = next(self.sizes)
        return batch


# ----------------------------------------------------------------------
# The shared mechanism: input policy and instrumentation
# ----------------------------------------------------------------------


def _input(ctx: ExecContext, op: "PhysicalOp") -> Iterable[Batch]:
    """``op``'s output under the query's input policy: drained into a
    list (drain-then-decide), or the lazy iterator (adaptive)."""
    batches = op.run_batches(ctx)
    return list(batches) if ctx.materialize else batches


def _drained(ctx: ExecContext, op: "PhysicalOp") -> Iterator[Batch]:
    """No solutions, after running ``op`` to completion: the answer for
    a query constant absent from the store, which the reference
    evaluator discovers once the preceding elements have run."""
    for _ in op.run_batches(ctx):
        pass
    return iter(())


def _input_chunks(ctx: ExecContext, op: "PhysicalOp") -> Iterator[List[Batch]]:
    """:func:`_input` in *decision units* for the steps that decide on
    their input size: one chunk holding the whole input (possibly
    empty) under drain-then-decide, one chunk per batch otherwise."""
    batches = _input(ctx, op)
    if ctx.materialize:
        yield batches
    else:
        for batch in batches:
            yield [batch]


def _observed(
    ctx: ExecContext,
    op: "PhysicalOp",
    body: Iterator[Batch],
    batches: List[Batch],
    operator: str,
    span_name: str,
    fields=None,
) -> Iterable[Batch]:
    """Report one execution of ``op`` when ``ctx.instrumented``.

    Runs ``body`` to completion inside a collector record (so the scans
    it performs are attributed to it) and an ``op.*`` span, both
    labelled with the run's constants (:meth:`PhysicalOp.label`);
    otherwise hands ``body`` back untouched.  ``batches`` is the
    operator's drained input; ``fields()`` returns extra ``(record
    fields, span attributes)``; the span also reports the batch shape.
    """
    if not ctx.instrumented:
        return body
    rows_in = _batch_rows(batches)
    detail = op.label(ctx.terms)
    record, attributes = fields() if fields is not None else ({}, {})
    attributes["rows_in"] = rows_in
    attributes["rows_per_batch"] = ctx.batch_size
    ctx.collector.begin_operator(
        operator, detail=detail, rows_in=rows_in, **record
    )
    with _trace.span(span_name, detail=detail, **attributes) as op_span:
        out = list(body)
        rows_out = _batch_rows(out)
        op_span.set("rows_out", rows_out)
        op_span.set("batches", len(out))
    ctx.collector.end_operator(rows_out=rows_out)
    return out


# ----------------------------------------------------------------------
# The shared join loop (port of the reference join / left_join)
# ----------------------------------------------------------------------


def merge_compatible(
    lrow: Row,
    rrow: Row,
    left_pos: List[int],
    right_pos: List[int],
    right_extra: List[int],
) -> Optional[Row]:
    """The SPARQL compatible-mapping merge of two rows (``None`` when
    they disagree on a shared variable); left unbound values are
    filled from the right."""
    for lp, rp in zip(left_pos, right_pos):
        lval, rval = lrow[lp], rrow[rp]
        if lval is not None and rval is not None and lval != rval:
            return None
    merged = list(lrow)
    for lp, rp in zip(left_pos, right_pos):
        if merged[lp] is None:
            merged[lp] = rrow[rp]
    return tuple(merged) + tuple(rrow[i] for i in right_extra)


def _join_batches(
    left_batches: Iterable[Batch],
    left_vars: Tuple[str, ...],
    right_pairs: Iterable[Pair],
    right_vars: Tuple[str, ...],
    deadline,
    sizes: Iterator[int],
    outer: bool = False,
) -> Iterator[Batch]:
    """Join ``left`` batches against a hashed ``right``, emitting rows
    in the reference ``join`` order (``outer``: ``left_join``,
    unmatched left rows padded).  Without shared variables every key is
    ``()`` — the cartesian product.  Fully bound probe keys concatenate
    precomputed right fragments without the per-candidate compatibility
    merge.

    One left row emits its whole fan-out before the batch can flush,
    so ``deadline.tick`` per left row is too coarse on its own: every
    flush reads the clock, bounding the overshoot by one batch plus
    one left row's fan-out.
    """
    shared = [v for v in left_vars if v in right_vars]
    right_extra = [i for i, v in enumerate(right_vars) if v not in left_vars]
    left_pos = [left_vars.index(v) for v in shared]
    right_pos = [right_vars.index(v) for v in shared]
    padding = (None,) * len(right_extra)
    right_pairs = list(right_pairs)
    grouped: Dict[Row, List[Pair]] = {}
    loose: List[Pair] = []
    for rrow, rmult in right_pairs:
        key = tuple(rrow[i] for i in right_pos)
        if None in key:
            loose.append((rrow, rmult))
        else:
            grouped.setdefault(key, []).append(
                (tuple(rrow[i] for i in right_extra), rmult)
            )
    # Per key: the projected fragments, plus their multiplicities only
    # when some differ from 1 (the probe loop then stays vectorized for
    # the common all-ones case).
    table = {}
    for key, entries in grouped.items():
        frags = [frag for frag, _ in entries]
        if all(rmult == 1 for _, rmult in entries):
            table[key] = (frags, None)
        else:
            table[key] = (frags, [rmult for _, rmult in entries])
    table_get = table.get
    out = _BatchBuilder(sizes)
    for rows, mults in left_batches:
        for i, lrow in enumerate(rows):
            if deadline is not None:
                deadline.tick()
            lmult = 1 if mults is None else mults[i]
            key = tuple(lrow[p] for p in left_pos)
            matched = False
            if None not in key:
                hits = table_get(key)
                if hits is not None:
                    frags, hit_mults = hits
                    if hit_mults is None:
                        out.add_repeat([lrow + frag for frag in frags], lmult)
                    else:
                        for frag, rmult in zip(frags, hit_mults):
                            out.add(lrow + frag, lmult * rmult)
                    matched = True
                candidates = loose
            else:
                candidates = right_pairs
            for rrow, rmult in candidates:
                merged = merge_compatible(
                    lrow, rrow, left_pos, right_pos, right_extra
                )
                if merged is not None:
                    out.add(merged, lmult * rmult)
                    matched = True
            if outer and not matched:
                out.add(lrow + padding, lmult)
            if out.full():
                if deadline is not None:
                    deadline.check()
                yield out.flush()
    if len(out):
        yield out.flush()


# ----------------------------------------------------------------------
# Operator base
# ----------------------------------------------------------------------


class PhysicalOp:
    """Base: a pull-based operator with a static output schema."""

    name = "Op"
    #: Output column order — identical to the reference evaluator's
    #: relation variable order at the same point.
    schema: Tuple[str, ...] = ()
    #: Variables provably bound (non-None) in every output row.
    certain: frozenset = frozenset()
    #: Prerendered label detail for EXPLAIN (set by the compiler).
    detail: str = ""
    #: On a plan's root: the plan's :class:`Constants` (set by
    #: :func:`compile_plan`).
    constants: Optional[Constants] = None
    #: Roots of the EXISTS sub-plans this operator's expressions run
    #: (set by the compiler; listed after the input among children).
    subplans: Tuple["PhysicalOp", ...] = ()

    def children(self) -> Tuple["PhysicalOp", ...]:
        return ()

    def label(self, terms: Sequence) -> str:
        """The EXPLAIN detail with the constant slots rendered from
        ``terms``: the compile-time table's, or a run's ``ctx.terms``."""
        return self.detail

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        """The one thing an operator implements: yield its solutions
        as non-empty ``(rows, mults)`` batches."""
        raise NotImplementedError

    def run(self, ctx: ExecContext) -> Iterator[Pair]:
        """``(row, multiplicity)`` pairs: the flattened batches."""
        return _flatten(self.run_batches(ctx))


class UnitOp(PhysicalOp):
    name = "Unit"

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        yield [()], None


class ValuesOp(PhysicalOp):
    """VALUES: an inline table (term IDs encoded at compile time).

    The leaf of an EXISTS sub-plan is an empty table whose one row is
    supplied per outer row through ``ctx.seeds``.
    """

    name = "Values"

    def __init__(self, variables: Tuple[str, ...], rows: List[Row]):
        self.schema = tuple(variables)
        self.rows = rows
        self.certain = frozenset(
            v
            for i, v in enumerate(self.schema)
            if all(row[i] is not None for row in rows)
        )
        self.detail = "%s × %d" % (
            " ".join(f"?{v}" for v in self.schema), len(rows),
        )

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        rows = ctx.seeds.get(self, self.rows)
        return _sliced(rows, None, ctx.chunk_sizes())


class SeedColumnOp(PhysicalOp):
    """A sargable ``?v = <constant>`` filter turned into a bound column
    (the evaluator's ``_seed_constant_filters``)."""

    name = "Seed"

    def __init__(
        self, input: PhysicalOp, var: str, term, constants: Constants
    ):
        self.input = input
        self.var = var
        self.slot = constants.slot(term)
        self.schema = input.schema + (var,)
        self.certain = input.certain | {var}
        self.detail = self.label(constants.terms)

    def children(self):
        return (self.input,)

    def label(self, terms: Sequence) -> str:
        return f"?{self.var} = {terms[self.slot].n3()}"

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        if _obs.is_active():
            _obs.inc("filter.sargable_seed")
        term_id = ctx.ids[self.slot]
        if term_id is None:
            _drained(ctx, self.input)
            return
        for rows, mults in self.input.run_batches(ctx):
            yield [row + (term_id,) for row in rows], mults


# ----------------------------------------------------------------------
# Pattern step: IndexScan / IndexNestedLoopJoin / HashJoin / Cartesian
# ----------------------------------------------------------------------


class _Layout:
    """How one pattern step probes the store for an input row.

    ``pick(row + tail)`` is the ``(s, p, o, g)`` probe: each position
    an input column, or from ``tail`` — a constant slot's ID this run, a
    free position (``None``) or the default graph (0).  A match appends
    the new variables ``vars``, read from quad ``positions``; ``checks``
    and ``graph_checks`` are the per-quad equalities of a variable
    repeated in the triple or also naming the graph, and ``named_only``
    skips default-graph quads for an unbound graph variable.  Computed
    against the input schema it is the nested-loop join; against the
    empty schema — the input row ``()`` — the standalone scan of the
    hash-join and cartesian right side.
    """

    def __init__(self, slots, graph, graph_slot, schema):
        column = {v: i for i, v in enumerate(schema)}
        self.named_only = isinstance(graph, str) and graph not in column
        new: List[str] = []
        positions: List[int] = []
        picks: List[int] = []
        #: ``(slot, value)`` per tail position: a slot's ID, else value.
        self._tail: List[Tuple[Optional[int], Optional[int]]] = []
        for position, part in enumerate(slots + (graph,)):
            if isinstance(part, str) and part in column:
                picks.append(column[part])
                continue
            picks.append(len(schema) + len(self._tail))
            if position == 3:
                fixed = None if isinstance(graph, str) else graph
                self._tail.append((graph_slot, fixed))
            elif not isinstance(part, str):
                self._tail.append((part, None))
            else:
                self._tail.append((None, None))
                if part not in new:
                    new.append(part)
                    positions.append(position)
        self.pick = itemgetter(*picks)
        #: Some probe position comes from the input row.
        self.shared = len(self._tail) < 4
        self.graph_checks: List[int] = []
        if self.named_only and graph in new:
            self.graph_checks = [p for p, s in enumerate(slots) if s == graph]
        elif self.named_only:
            new.append(graph)
            positions.append(3)
        self.vars = tuple(new)
        self.positions = tuple(positions)
        self.checks = internal_checks(slots)
        # Without per-quad checks the store returns the extension rows
        # directly (zipped column slices); named graphs only still
        # qualifies because the graph column is then the last one.
        self.fast = not self.checks and not self.graph_checks

    def tail(self, ids: List[Optional[int]]) -> Tuple[Optional[int], ...]:
        return tuple(
            value if slot is None else ids[slot] for slot, value in self._tail
        )

    def extensions(self, quads) -> List[Row]:
        """The columns each quad appends, for quads passing the checks."""
        named_only, checks = self.named_only, self.checks
        graph_checks, positions = self.graph_checks, self.positions
        return [
            tuple(quad[p] for p in positions)
            for quad in quads
            if not (named_only and quad[3] == 0)
            and not (checks and not passes_checks(quad, checks))
            and not any(quad[3] != quad[p] for p in graph_checks)
        ]


#: The span of a pattern step run as another strategy than its name's.
_STRATEGY_SPANS = {
    "hash join": "op.HashJoin", "cartesian": "op.CartesianProduct",
}


class PatternJoinOp(PhysicalOp):
    """One plain triple-pattern step of a BGP flush.

    Statically this is an ``IndexScan`` (no shared variables with the
    input) or an ``IndexNestedLoopJoin`` (Table-5 prefix probes per
    input row); at run time the evaluator's thresholds may promote a
    connected step to a hash join, or demote a disconnected one to a
    cartesian scan-join — the executed strategy is reported per run.

    ``chain_first`` marks the first step of a flush: it always
    executes (and records) even over an empty input, mirroring a fresh
    ``_evaluate_bgp`` call in the reference evaluator.

    The step reads its constants' IDs by slot (:class:`Constants`).
    ``flush`` lists, on the first step of a BGP,
    the constant slots of all its steps: one of them absent from the
    store empties the flush before any step executes, like the
    reference evaluator's ``_evaluate_bgp``.
    """

    def __init__(
        self,
        input: PhysicalOp,
        pattern: TriplePattern,
        graph: GraphContext,
        chain_first: bool,
        constants: Constants,
        flush: Tuple[int, ...] = (),
    ):
        self.input = input
        self.chain_first = chain_first
        self.flush = flush
        self.slots = tuple(
            part if isinstance(part, str) else constants.slot(part)
            for part in (pattern.subject, pattern.predicate, pattern.object)
        )
        graph_slot = _graph_slot(graph, constants)
        self.layout = _Layout(self.slots, graph, graph_slot, input.schema)
        self.standalone = _Layout(self.slots, graph, graph_slot, ())
        self.schema = input.schema + self.layout.vars
        self.certain = input.certain | set(self.layout.vars)
        shared = self.layout.shared
        self.name = "IndexNestedLoopJoin" if shared else "IndexScan"
        self.detail = self.label(constants.terms)

    def children(self):
        return (self.input,)

    def label(self, terms: Sequence) -> str:
        return " ".join(
            f"?{slot}" if isinstance(slot, str) else terms[slot].n3()
            for slot in self.slots
        )

    def bound(self, terms: Sequence) -> str:
        """The positions the probe binds (Table 5), rendered like
        :meth:`label`."""
        return describe_bound(
            self.slots, set(self.input.schema),
            lambda slot: terms[slot].n3(),
        )

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        """Decide and execute the step once per input chunk.

        Drain-then-decide hands over the whole input as one chunk, so
        there is one decision on the true total (the reference
        evaluator's).  The adaptive policy hands over batches: a
        connected step probes nested-loop until the rows seen reach
        ``HASH_JOIN_MIN_ROWS``, then buffers the rest and decides once
        on the total; a disconnected step peeks for a second row and
        then streams its input through the cartesian loop.
        """
        ids = ctx.ids
        if any(ids[slot] is None for slot in self.flush):
            yield from _drained(ctx, self.input)
            return
        sizes = ctx.chunk_sizes()
        chunks = _input_chunks(ctx, self.input)
        executed: Optional[str] = None
        processed = 0
        try:
            chunk = next(chunks, [])
            if not chunk and not self.chain_first:
                return
            while chunk is not None:
                rows_in = processed + _batch_rows(chunk)
                if self.layout.shared:
                    if rows_in >= HASH_JOIN_MIN_ROWS:
                        for more in chunks:
                            chunk.extend(more)
                        rows_in = processed + _batch_rows(chunk)
                elif rows_in == 1:
                    chunk.extend(next(chunks, ()))
                    rows_in = _batch_rows(chunk)
                executed, decision, estimate = self._decide(ctx, rows_in)
                # A cartesian step streams whatever input is still to
                # come; every other step covers exactly its chunk.
                batches: Iterable[Batch] = chunk
                if executed == "cartesian":
                    batches = _chain(chunk, _chain.from_iterable(chunks))
                yield from self._step(
                    ctx, executed, decision, estimate, chunk, batches, sizes
                )
                processed = rows_in
                chunk = next(chunks, None)
        finally:
            if executed is not None and _obs.is_active():
                _obs.record_join(executed)

    def _decide(self, ctx: ExecContext, rows_in: int):
        """The reference evaluator's strategy choice for a step over
        ``rows_in`` input rows: ``(executed, decision, estimate)``."""
        if rows_in >= HASH_JOIN_MIN_ROWS or ctx.instrumented:
            layout = self.standalone
            estimate = ctx.model.estimate(layout.pick(layout.tail(ctx.ids)))
        else:
            # Below the hash-join threshold the decision is NLJ no
            # matter the estimate, and nobody records it — skip the
            # index-statistics lookup entirely.
            estimate = -1
        decision = decide_join(rows_in, estimate)
        if self.layout.shared and decision.method == "hash join":
            executed = "hash join"
        elif not self.layout.shared and rows_in > 1:
            executed = "cartesian"
        else:
            executed = "NLJ"
        return executed, decision, estimate

    def _step(
        self, ctx, executed, decision, estimate, chunk, batches, sizes
    ) -> Iterable[Batch]:
        if executed == "NLJ":
            body = self._probe(ctx, self.layout, batches, sizes)
        else:
            # One probe with the empty row: the pattern standalone.
            right = self._probe(
                ctx, self.standalone, [([()], None)],
                _repeat(ctx.batch_size),
            )
            body = _join_batches(
                batches, self.input.schema, _flatten(right),
                self.standalone.vars, ctx.deadline, sizes,
            )
        if not ctx.instrumented:
            return body

        def fields():
            reason = (
                "disconnected pattern: scan once"
                if executed == "cartesian"
                else decision.describe()
            )
            record = dict(
                bound=self.bound(ctx.terms),
                join_method=executed,
                join_reason=reason,
                estimate=estimate,
            )
            return record, dict(join=executed, estimate=estimate)

        span_name = _STRATEGY_SPANS.get(executed, "op." + self.name)
        return _observed(ctx, self, body, chunk, "pattern", span_name, fields)

    def _probe(
        self,
        ctx: ExecContext,
        layout: _Layout,
        in_batches: Iterable[Batch],
        sizes: Iterator[int],
    ) -> Iterator[Batch]:
        """Vectorized port of the evaluator's ``_nested_loop_step``:
        one index probe per input row, extension rows built as column
        zips by the store (:meth:`SemanticIndex.range_row_batches`), or
        from full quads through the layout's per-quad checks."""
        pick, tail = layout.pick, layout.tail(ctx.ids)
        scan_batches = ctx.model.scan_row_batches
        deadline = ctx.deadline
        fast = layout.fast
        positions = layout.positions if fast else (0, 1, 2, 3)
        named_only = layout.named_only
        # Bind-time index selection: every probe shares one bound-slot
        # shape, so the index choice and scan layout are hoisted out of
        # the per-row loop on the first probe (rows where an OPTIONAL
        # left a join variable unbound fall back to the general path).
        prepare = getattr(ctx.model, "scan_prober", None) if fast else None
        prober = None
        out = _BatchBuilder(sizes)

        def target() -> int:
            # Read per window: a long range grows with the ramp.
            return out.target

        for rows, mults in in_batches:
            for i, row in enumerate(rows):
                if deadline is not None:
                    deadline.tick()
                mult = 1 if mults is None else mults[i]
                pattern = pick(row + tail)
                if prepare is not None:
                    prober = prepare(pattern, positions)
                    prepare = None
                if prober is not None and prober.matches(pattern):
                    windows = prober.batches(pattern, target)
                else:
                    windows = scan_batches(pattern, positions, target)
                for window in windows:
                    if deadline is not None:
                        deadline.tick()
                    if not fast:
                        window = layout.extensions(window)
                    elif named_only:
                        # The graph column is the last extension slot.
                        window = [e for e in window if e[-1] != 0]
                    if row:
                        window = [row + e for e in window]
                    out.add_repeat(window, mult)
                    if out.full():
                        yield out.flush()
        if len(out):
            yield out.flush()


# ----------------------------------------------------------------------
# Trie join: a cyclic flush bound one variable at a time
# ----------------------------------------------------------------------


def _cyclic(edges: List[set]) -> bool:
    """Whether the hypergraph of ``edges`` (variable sets) is cyclic:
    GYO reduction — drop variables only one edge has, and edges another
    edge contains — leaves something."""
    edges = [set(edge) for edge in edges]
    changed = True
    while changed:
        changed = False
        uses = Counter(v for edge in edges for v in edge)
        for edge in edges:
            lonely = {v for v in edge if uses[v] == 1}
            if lonely:
                edge -= lonely
                changed = True
        i = 0
        while i < len(edges):
            if any(edges[i] <= f for j, f in enumerate(edges) if j != i):
                del edges[i]
                changed = True
            else:
                i += 1
    return any(edges)


def _trie(
    batches: Iterable[Batch], keys, payload
) -> Tuple[Optional[Dict], bool]:
    """One pattern's rows as a hash trie: a dict per ``keys`` column,
    whose leaves count the rows of each key path, or, with ``payload``
    columns, each payload tuple's rows.  Returns the root (``None`` when
    there are no rows; a pattern without keys is its own leaf) and
    whether every leaf count is 1."""
    top: Dict = {}
    unit = not payload
    for rows, mults in batches:
        for row, mult in zip(rows, _repeat(1) if mults is None else mults):
            node, key = top, None  # the root hangs under ``None``
            for column in keys:
                child = node.get(key)
                if child is None:
                    child = node[key] = {}
                node, key = child, row[column]
            if payload:
                leaf = node.get(key)
                if leaf is None:
                    leaf = node[key] = {}
                extra = tuple(row[column] for column in payload)
                leaf[extra] = leaf.get(extra, 0) + mult
            else:
                count = node.get(key)
                node[key] = mult if count is None else count + mult
                unit = unit and count is None and mult == 1
    return top.get(None), unit


class TrieJoinOp(PhysicalOp):
    """A BGP flush whose join graph has a cycle, as one multiway join
    that binds one variable at a time: Veldhuizen's Leapfrog Triejoin,
    in the hash-trie form of Wang et al.'s Free Join.

    Each pattern is read once per run by its own standalone scan
    (``scans``, a :class:`PatternJoinOp` over Unit) and hashed into a
    trie keyed by its shared variables — input columns first, then
    ``order``, the planner's pattern order.  Variables only one pattern
    uses ride on its trie leaves as payload.  Per input row, each level
    intersects the keys of the tries that mention its variable,
    iterating the smallest and probing the rest, and applies the pushed
    filters its variable completes; no row is built for a path that
    closes no cycle.  Rows come out in the pairwise chain's columns.
    """

    name = "TrieJoin"

    def __init__(
        self,
        input: PhysicalOp,
        patterns: Sequence[TriplePattern],
        graph: GraphContext,
        chain_first: bool,
        constants: Constants,
        flush: Tuple[int, ...],
        filters: Sequence[Expression],
    ):
        from repro.sparql.ast import expression_variables

        self.input = input
        self.chain_first = chain_first
        self.flush = flush
        self.scans = tuple(
            PatternJoinOp(UnitOp(), pattern, graph, True, constants)
            for pattern in patterns
        )
        schema = input.schema
        graph_slot = _graph_slot(graph, constants)
        for scan in self.scans:
            schema += _Layout(scan.slots, graph, graph_slot, schema).vars
        self.schema = schema
        self.certain = input.certain | set(schema)
        columns = [scan.schema for scan in self.scans]
        uses = Counter(v for names in columns for v in names)
        bound = [v for v in input.schema if uses[v]]
        self.order = tuple(
            v for v in dict.fromkeys(v for names in columns for v in names)
            if uses[v] > 1 and v not in input.schema
        )
        keys = bound + list(self.order)
        self._keys = [[c.index(v) for v in keys if v in c] for c in columns]
        self._bound = [
            [input.schema.index(v) for v in bound if v in c] for c in columns
        ]
        self._payload = [
            [i for i, v in enumerate(c) if v not in keys] for c in columns
        ]
        self._parts = [
            tuple(p for p, c in enumerate(columns) if v in c)
            for v in self.order
        ]
        # Each new column's place among the level values followed by
        # every payload.
        produced = list(self.order) + [
            c[i] for c, payload in zip(columns, self._payload)
            for i in payload
        ]
        new = schema[len(input.schema):]
        # (A cycle binds three or more new variables, so the
        # itemgetter returns a tuple.)
        self._assemble = (
            None if produced == list(new)
            else itemgetter(*map(produced.index, new))
        )
        # A pushed filter runs at the level that binds its last
        # variable, over the input row and the level values so far.
        self._filters: List[List[FilterApplyOp]] = [[] for _ in self.order]
        self.unplaced: List[Expression] = []
        for expression in filters:
            names = expression_variables(expression)
            levels = [self.order.index(v) for v in names if v in self.order]
            if not names <= input.certain | set(self.order):
                self.unplaced.append(expression)
                continue
            level = max(levels, default=0)
            scope = PhysicalOp()
            scope.schema = input.schema + self.order[:level + 1]
            scope.certain = frozenset(scope.schema)
            self._filters[level].append(
                FilterApplyOp(scope, expression, "pushed", constants)
            )
        self.detail = self.label(constants.terms)

    def children(self):
        return (self.input,) + self.scans

    def label(self, terms: Sequence) -> str:
        parts = []
        for var, tests in zip(self.order, self._filters):
            parts.append(f"?{var}")
            parts.extend(f"FILTER({test.label(terms)})" for test in tests)
        return " ".join(parts)

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        if any(ctx.ids[slot] is None for slot in self.flush):
            yield from _drained(ctx, self.input)
            return
        batches = _input(ctx, self.input)
        if ctx.materialize and not batches and not self.chain_first:
            return
        # Instrumented, the scans report before the join that hashes
        # their rows.
        scanned = [self._scan(ctx, scan) for scan in self.scans]
        if ctx.instrumented:
            scanned = [list(rows) for rows in scanned]
        if _obs.is_active():
            _obs.record_join("trie")
        levels = [[f"?{var}", 0, 0] for var in self.order]
        body = self._bind(ctx, batches, scanned, levels)
        if not ctx.instrumented:
            yield from body
            return
        record = dict(join_method="trie", levels=levels)
        yield from _observed(
            ctx, self, body, batches, "join", "op.TrieJoin",
            lambda: (record, {"join": "trie"}),
        )

    @staticmethod
    def _scan(ctx: ExecContext, scan: PatternJoinOp) -> Iterable[Batch]:
        """One pattern's rows, read whole: full batches, whatever the
        input policy, since the trie needs every row."""
        unit = [([()], None)]
        body = scan._probe(ctx, scan.standalone, unit, _repeat(ctx.batch_size))

        def fields():
            layout = scan.standalone
            estimate = ctx.model.estimate(layout.pick(layout.tail(ctx.ids)))
            record = dict(
                bound=scan.bound(ctx.terms), join_method="trie",
                join_reason="scan once into a trie", estimate=estimate,
            )
            return record, dict(join="trie", estimate=estimate)

        return _observed(
            ctx, scan, body, unit, "pattern", "op.IndexScan", fields
        )

    def _bind(self, ctx, batches, scanned, levels) -> Iterator[Batch]:
        """The bindings of every input row, level by level, from the
        tries of the ``scanned`` pattern rows; ``levels`` counts each
        level's candidates (keys of the smallest trie iterated) and
        survivors (values bound).  Batches flush between values of the
        first level."""
        tries, units = zip(*(
            _trie(rows, keys, payload)
            for rows, keys, payload in zip(scanned, self._keys, self._payload)
        ))
        if None in tries:
            for _ in batches:  # a pattern without rows
                pass
            return
        if _obs.is_active():
            for _ in _chain.from_iterable(self._filters):
                _obs.inc("filter.pushdown")
        deadline = ctx.deadline
        parts, depth = self._parts, len(self._parts)
        last = depth - 1
        tests = [[f._row_test(ctx) for f in level] for level in self._filters]
        plain = [p for p, payload in enumerate(self._payload) if not payload]
        extra = [p for p, payload in enumerate(self._payload) if payload]
        # With every leaf counting 1, no payload and no filter on the
        # last level, and the last level shared by one trie the level
        # before binds and one it does not, the last two levels run as
        # one loop (:func:`finish`).
        before = last - 1
        moving = [p for p in parts[last] if p in parts[before]]
        fixed = [p for p in parts[last] if p not in parts[before]]
        assemble = self._assemble
        lean = (
            all(units) and assemble is None and not tests[last]
            and len(moving) == 1 and len(fixed) == 1
        )
        if lean:
            (moving,), (fixed,) = moving, fixed
            moving = parts[before].index(moving)
        nodes = list(tries)
        values: List[int] = []
        out = _BatchBuilder(ctx.chunk_sizes())

        def emit(row: Row, mult: int) -> None:
            for p in plain:
                mult *= nodes[p]
            for combo in product(*(nodes[p].items() for p in extra)):
                more, total = tuple(values), mult
                for payload, count in combo:
                    more += payload
                    total *= count
                if assemble is not None:
                    more = assemble(more)
                out.add(row + more, total)

        def candidates(j: int):
            """Level ``j``'s tries and the values all of them hold."""
            parents = [nodes[p] for p in parts[j]]
            smallest, *rest = sorted(parents, key=len)
            levels[j][1] += len(smallest)
            return parents, [v for v in smallest if all(v in d for d in rest)]

        def finish(row: Row, mult: int) -> None:
            """The last two levels of a lean join: per value of the
            level before last, the last level's values, probing the
            larger of its two tries."""
            parents, hits = candidates(before)
            head = row + tuple(values)
            checks = tests[before]
            if checks:
                hits = [
                    v for v in hits
                    if all(test(head + (v,)) for test in checks)
                ]
            levels[before][2] += len(hits)
            branch, probe = parents[moving], nodes[fixed]
            seen, made = 0, []
            for value in hits:
                if deadline is not None:
                    deadline.tick()
                other = branch[value]
                if len(other) < len(probe):
                    seen += len(other)
                    found = [v for v in other if v in probe]
                else:
                    seen += len(probe)
                    found = [v for v in probe if v in other]
                if found:
                    prefix = head + (value,)
                    made += [prefix + (v,) for v in found]
            levels[last][1] += seen
            levels[last][2] += len(made)
            out.add_repeat(made, mult)

        def step(j: int, value: int, row: Row, mult: int, parents) -> None:
            """Bind level ``j``'s variable to ``value``, then the rest."""
            if deadline is not None:
                deadline.tick()
            values.append(value)
            checks = tests[j]
            if not checks or all(test(row + tuple(values)) for test in checks):
                levels[j][2] += 1
                for p, parent in zip(parts[j], parents):
                    nodes[p] = parent[value]
                if j == last:
                    emit(row, mult)
                elif lean and j + 2 == last:
                    finish(row, mult)
                else:
                    below, hits = candidates(j + 1)
                    for hit in hits:
                        step(j + 1, hit, row, mult, below)
                    for p, parent in zip(parts[j + 1], below):
                        nodes[p] = parent
            values.pop()

        for row, mult in _flatten(batches):
            if deadline is not None:
                deadline.tick()
            for p, columns in enumerate(self._bound):
                node = tries[p]
                for column in columns:
                    node = node.get(row[column]) if node is not None else None
                nodes[p] = node
            if None in nodes:
                continue
            parents, hits = candidates(0)
            for value in hits:
                step(0, value, row, mult, parents)
                if out.full():
                    if deadline is not None:
                        deadline.check()
                    yield out.flush()
        if len(out):
            yield out.flush()


# ----------------------------------------------------------------------
# Hop merging and path closure
# ----------------------------------------------------------------------


class MergeOp(PhysicalOp):
    """Drops hop columns no later step reads and merges the rows that
    become equal, summing their multiplicities (exact under bag
    semantics; :func:`repro.sparql.optimize.merge_hops`).  Merges each
    decision unit of :func:`_input_chunks`: the whole input when
    drained, each batch when streaming."""

    name = "Merge"

    def __init__(self, input: PhysicalOp, drop: List[str]):
        self.input = input
        keep = [i for i, v in enumerate(input.schema) if v not in drop]
        self.schema = tuple(input.schema[i] for i in keep)
        self.certain = input.certain - set(drop)
        self.detail = " ".join(f"-?{v}" for v in drop)
        if len(keep) == 1:
            (only,) = keep
            self._key = lambda row: (row[only],)
        else:  # itemgetter() of two or more positions returns a tuple
            self._key = itemgetter(*keep) if keep else (lambda row: ())

    def children(self):
        return (self.input,)

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        for chunk in _input_chunks(ctx, self.input):
            merged: Counter = Counter()
            for rows, mults in chunk:
                if ctx.tick is not None:
                    ctx.tick()
                if mults is None:
                    merged.update(map(self._key, rows))
                else:
                    for row, mult in zip(map(self._key, rows), mults):
                        merged[row] += mult
            yield from _sliced(
                list(merged), list(merged.values()), ctx.chunk_sizes()
            )


def _merged(op: PhysicalOp, drop) -> PhysicalOp:
    gone = [v for v in op.schema if v in drop]
    return MergeOp(op, gone) if gone else op


#: The closure sub-plan's endpoint columns (``#`` keeps them apart from
#: every query variable and from the hop namespace).
_FROM, _TO = "#s", "#o"


class PathClosureOp(PhysicalOp):
    """A closure step ``s p* o`` (also ``p+``, ``p?``) with set
    semantics, walked from the bound end: the subject unless only the
    object is bound.  With both free it walks from every subject and
    object of the active graph when the path may have zero length, as
    SPARQL 1.1 defines it, or when a link of ``p`` has no constant
    predicate (a negated set), and otherwise from every node of ``p``'s
    links.

    Each round expands the frontier's new nodes as one batch through
    ``expand`` — ``p`` compiled over a seed table of nodes
    (:meth:`Compiler.seeded`), whose pattern steps probe the store's
    prepared ``scan_prober`` — and reads the deadline clock once.
    """

    name = "PathClosure"

    def __init__(
        self,
        input: PhysicalOp,
        pattern: TriplePattern,
        graph: GraphContext,
        chain_first: bool,
        seeded: Tuple[PhysicalOp, Tuple[ValuesOp, ...]],
        forward: bool,
        constants: Constants,
    ):
        self.input = input
        self.pattern = pattern
        self.chain_first = chain_first
        self.expand, self._leaves = seeded
        ends = self._ends = tuple(
            end if isinstance(end, str) else constants.slot(end)
            for end in (pattern.subject, pattern.object)
        )
        self._origin, self._target = ends if forward else ends[::-1]
        graph_slot = _graph_slot(graph, constants)
        #: The slots that must all be present for the walk to run.
        self._checked = [
            slot for slot in ends + (graph_slot,) if isinstance(slot, int)
        ]
        #: The active graph of the zero-length domain: a slot's ID this
        #: run, or ``(None, value)`` — any graph, or the default graph.
        self._graph = (graph_slot, graph if isinstance(graph, int) else None)
        pair = (_FROM, _TO) if forward else (_TO, _FROM)
        self._pair = itemgetter(*map(self.expand.schema.index, pair))
        new = [
            v for v in dict.fromkeys(self._ends)
            if isinstance(v, str) and v not in input.schema
        ]
        self.schema = input.schema + tuple(new)
        self.certain = input.certain | set(new)
        self.detail = self.label(constants.terms)
        #: The standalone scans of the inner path's links, whose nodes
        #: are the walk's domain when both ends are free; ``None`` when
        #: that is every node of the active graph: the path may have
        #: zero length, or a link has no constant predicate (a negated
        #: set).
        links = [
            op for op in execution_order(self.expand)
            if isinstance(op, PatternJoinOp)
        ]
        constant = all(isinstance(op.slots[1], int) for op in links)
        self._links = (
            [op.standalone for op in links]
            if pattern.predicate.minimum and constant else None
        )

    def children(self):
        return (self.input, self.expand)

    def label(self, terms: Sequence) -> str:
        subject, obj = (
            end if isinstance(end, str) else terms[end] for end in self._ends
        )
        pattern = replace(self.pattern, subject=subject, object=obj)
        return render_triple(pattern)

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        batches = _input(ctx, self.input)
        if ctx.materialize and not batches and not self.chain_first:
            return
        yield from _observed(
            ctx, self, self._walk(ctx, batches), batches, "path",
            "op.PathClosure", lambda: ({"join_method": "path"}, {}),
        )

    def _walk(self, ctx: ExecContext, batches) -> Iterator[Batch]:
        ids = ctx.ids
        if any(ids[slot] is None for slot in self._checked):
            for _ in batches:  # a constant absent from the store
                pass
            return
        origin, target = self._origin, self._target
        # Output positions: an input column, or (at or past ``width``) a
        # column this step binds; ``None`` for a constant.
        position = {v: i for i, v in enumerate(self.schema)}
        origin_at, target_at = position.get(origin), position.get(target)
        width = len(self.input.schema)
        free = origin_at is not None and origin_at >= width
        extend = target_at is not None and target_at >= width + free
        reach: Dict[int, set] = {}
        successors: Dict[int, set] = {}
        domain = None
        out = _BatchBuilder(ctx.chunk_sizes())
        for row, mult in _flatten(batches):
            if not free:
                starts = (ids[origin] if origin_at is None else row[origin_at],)
            elif domain is None:
                starts = domain = self._domain(ctx)
            for start in starts:
                if start is None:
                    continue
                ends = reach.get(start)
                if ends is None:
                    ends = reach[start] = self._reach(ctx, start, successors)
                head = row + (start,) if free else row
                if extend:
                    out.add_repeat([head + (end,) for end in ends], mult)
                elif (ids[target] if target_at is None else head[target_at]) in ends:
                    out.add(head, mult)
                if out.full():
                    yield out.flush()
        if len(out):
            yield out.flush()

    def _domain(self, ctx: ExecContext) -> set:
        nodes = set()
        if self._links is None:
            slot, graph = self._graph
            graph = graph if slot is None else ctx.ids[slot]
            for s, _, o, _ in ctx.model.scan((None, None, None, graph)):
                nodes.update((s, o))
            return nodes
        for link in self._links:
            pattern = link.pick(link.tail(ctx.ids))
            if pattern[1] is not None:  # else absent from the store
                for s, _, o, _ in ctx.model.scan(pattern):
                    nodes.update((s, o))
        return nodes

    def _reach(self, ctx: ExecContext, start: int, successors) -> set:
        """The nodes the closure reaches from ``start`` (set semantics);
        ``successors`` caches each node's one-step expansion."""
        repeat = self.pattern.predicate
        seen = {start} if repeat.minimum == 0 else set()
        frontier = [start]
        while frontier:
            if ctx.deadline is not None:
                ctx.deadline.check()
            fresh = [node for node in frontier if node not in successors]
            for node in fresh:
                successors[node] = set()
            if fresh:
                seed = [(node,) for node in fresh]
                for leaf in self._leaves:
                    ctx.seeds[leaf] = seed
                for rows, _ in self.expand.run_batches(ctx):
                    for origin, end in map(self._pair, rows):
                        successors[origin].add(end)
            frontier = [
                end
                for node in frontier
                for end in successors[node]
                if end not in seen and not seen.add(end)
            ]
            if not repeat.unbounded:
                break
            if frontier and _obs.is_active():
                _obs.record_frontier(len(frontier))
        return seen


# ----------------------------------------------------------------------
# Filter
# ----------------------------------------------------------------------


#: Type-test builtins with an ID-level vectorized path: the values
#: table classifies a term ID straight from its interning record
#: (:meth:`~repro.store.values.ValuesTable.is_literal_id` and
#: friends), so the batch filter never materializes the terms.
_VECTOR_TESTS = {
    "ISLITERAL": "is_literal_id",
    "ISIRI": "is_iri_id",
    "ISURI": "is_iri_id",
    "ISBLANK": "is_blank_id",
}


class FilterApplyOp(PhysicalOp):
    """FILTER application (pushed-down or group-end)."""

    name = "Filter"

    def __init__(
        self,
        input: PhysicalOp,
        expression: Expression,
        origin: str,
        constants: Constants,
    ):
        self.input = input
        self.expression = expression
        self.origin = origin
        self.schema = input.schema
        self.certain = input.certain
        self._counter = (
            "filter.pushdown" if origin == "pushed" else "filter.group_end"
        )
        # ``?v = c`` with c an IRI or plain string (possibly a lifted
        # slot): c is a plan constant, read from the run's table.
        match = constant_equality(expression)
        self._slot = None if match is None else constants.slot(match[1])
        self.detail = self.label(constants.terms)
        # Compile-time vector plan: a single type-test or BOUND over
        # one bound column skips per-row expression evaluation.  An
        # unbound variable raises ExpressionError in the general path
        # (row excluded) and is None here (row excluded) — identical.
        self._vector_test: Optional[Tuple[str, int]] = None
        if (
            isinstance(expression, FunctionExpr)
            and len(expression.args) == 1
            and isinstance(expression.args[0], VarExpr)
            and expression.args[0].name in self.schema
        ):
            position = self.schema.index(expression.args[0].name)
            method = _VECTOR_TESTS.get(expression.name)
            if method is not None:
                self._vector_test = (method, position)
            elif expression.name == "BOUND":
                self._vector_test = ("BOUND", position)

    def children(self):
        return (self.input,) + self.subplans

    def label(self, terms: Sequence) -> str:
        return render_expr(self._bound(terms))

    def _bound(self, terms: Sequence) -> Expression:
        """The expression with its constant slot's term from ``terms``."""
        expression = self.expression
        if self._slot is None:
            return expression
        constant = TermExpr(terms[self._slot])
        if isinstance(expression.left, TermExpr):
            return replace(expression, left=constant)
        return replace(expression, right=constant)

    def _row_test(self, ctx: ExecContext):
        """Build the per-row predicate once per execution."""
        if self._vector_test is not None:
            method, position = self._vector_test
            if method == "BOUND":
                return lambda row: row[position] is not None
            id_test = getattr(ctx.values, method)
            return lambda row: row[position] is not None and id_test(
                row[position]
            )
        getter = row_getter(self.input.schema, ctx.values.term)
        evaluate = ctx.expr.evaluate
        ebv = F.ebv
        expression = self._bound(ctx.terms)

        def test(row: Row) -> bool:
            try:
                return ebv(evaluate(expression, getter(row)))
            except ExpressionError:
                return False

        return test

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        if _obs.is_active():
            _obs.inc(self._counter)
        batches = _input(ctx, self.input)
        body = _select_rows(batches, self._row_test(ctx), ctx.tick)
        return iter(_observed(ctx, self, body, batches, "filter", "op.Filter"))


# ----------------------------------------------------------------------
# Binary operators
# ----------------------------------------------------------------------


class JoinOp(PhysicalOp):
    """Compatible-mapping join (UNION blocks, GRAPH groups, VALUES,
    subqueries, nested groups)."""

    name = "HashJoin"
    #: OPTIONAL: unmatched left rows are kept, padded.
    outer = False

    def __init__(
        self, left: PhysicalOp, right: PhysicalOp, graph: Optional[int] = None
    ):
        self.left = left
        self.right = right
        #: The constant slot of a ``GRAPH <iri>`` right side: absent from
        #: the store, the join is empty and the group never runs.
        self.graph = graph
        self.schema = left.schema + tuple(
            v for v in right.schema if v not in left.schema
        )
        self.certain = left.certain | (
            frozenset() if self.outer else right.certain
        )

    def children(self):
        return (self.left, self.right)

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        if self.graph is not None and ctx.ids[self.graph] is None:
            return _drained(ctx, self.left)
        # A drained left runs before the right is built, so operator
        # records appear in the reference evaluator's (sequential) order.
        return _join_batches(
            _input(ctx, self.left), self.left.schema,
            self.right.run(ctx), self.right.schema, ctx.deadline,
            ctx.chunk_sizes(), self.outer,
        )


class LeftJoinOp(JoinOp):
    """OPTIONAL."""

    name = "LeftJoin"
    outer = True


class MinusOp(PhysicalOp):
    name = "Minus"

    def __init__(self, left: PhysicalOp, right: PhysicalOp):
        self.left = left
        self.right = right
        self.schema = left.schema
        self.certain = left.certain
        self._shared = [v for v in left.schema if v in right.schema]

    def children(self):
        return (self.left, self.right)

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        left_batches = _input(ctx, self.left)
        right_pairs = self.right.run(ctx)
        shared = self._shared
        # The evaluator always evaluates the MINUS group, even when no
        # variables are shared (and the result is then ignored).
        if not shared:
            for _ in right_pairs:
                pass
            yield from left_batches
            return
        left_pos = [self.left.schema.index(v) for v in shared]
        right_pos = [self.right.schema.index(v) for v in shared]
        right_keys = set()
        for rrow, _ in right_pairs:
            right_keys.add(tuple(rrow[i] for i in right_pos))
        tick = ctx.tick

        def keep(lrow: Row) -> bool:
            if tick is not None:
                tick()
            key = tuple(lrow[i] for i in left_pos)
            if None in key:
                return not any(
                    all(
                        a is None or b is None or a == b
                        for a, b in zip(key, rkey)
                    )
                    and any(
                        a is not None and b is not None
                        for a, b in zip(key, rkey)
                    )
                    for rkey in right_keys
                )
            return key not in right_keys

        yield from _select_rows(left_batches, keep)


class UnionOp(PhysicalOp):
    name = "Union"

    def __init__(self, branches: Tuple[PhysicalOp, ...]):
        self.branches = branches
        all_vars: List[str] = []
        for branch in branches:
            for variable in branch.schema:
                if variable not in all_vars:
                    all_vars.append(variable)
        self.schema = tuple(all_vars)
        # A variable absent from some branch is None in that branch.
        self.certain = frozenset(
            v for v in self.schema if all(v in b.certain for b in branches)
        )

    def children(self):
        return self.branches

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        tick = ctx.tick
        schema = self.schema
        for branch in self.branches:
            if branch.schema == schema:
                # Identity mapping: batches pass through untouched.
                for batch in branch.run_batches(ctx):
                    if tick is not None:
                        tick()
                    yield batch
                continue
            positions = [
                branch.schema.index(v) if v in branch.schema else None
                for v in schema
            ]
            for rows, mults in branch.run_batches(ctx):
                if tick is not None:
                    tick()
                yield [
                    tuple(row[p] if p is not None else None for p in positions)
                    for row in rows
                ], mults


# ----------------------------------------------------------------------
# Solution modifiers
# ----------------------------------------------------------------------


class ExtendOp(PhysicalOp):
    """BIND / SELECT expression: append one computed column.  The
    rebind check happens at compile time (same message as the
    evaluator's runtime error)."""

    name = "Extend"

    def __init__(
        self, input: PhysicalOp, var: str, expression: Expression, kind: str
    ):
        self.input = input
        self.var = var
        self.expression = expression
        self.kind = kind
        self.schema = input.schema + (var,)
        # BIND values may be None (expression errors bind nothing).
        self.certain = input.certain
        self.detail = f"?{var} := {render_expr(expression)}"

    def children(self):
        return (self.input,) + self.subplans

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        getter = row_getter(self.input.schema, ctx.values.term)
        expression = self.expression
        evaluate = ctx.expr.evaluate
        encode = ctx.network.encode_term
        for rows, mults in self.input.run_batches(ctx):
            extended: List[Row] = []
            for row in rows:
                try:
                    value: Optional[int] = encode(
                        evaluate(expression, getter(row))
                    )
                except ExpressionError:
                    value = None
                extended.append(row + (value,))
            yield extended, mults


class ProjectOp(PhysicalOp):
    """Column projection; missing variables become unbound columns."""

    name = "Project"

    def __init__(self, input: PhysicalOp, names: Tuple[str, ...]):
        self.input = input
        self.names = names
        self.schema = tuple(names)
        self._positions = [
            input.schema.index(v) if v in input.schema else None
            for v in names
        ]
        self.certain = frozenset(
            v
            for v, p in zip(names, self._positions)
            if p is not None and v in input.certain
        )
        self.detail = " ".join(f"?{v}" for v in names)
        # Compile-time projection kernel: C-level itemgetter when every
        # projected variable exists in the input schema.
        positions = self._positions
        self._identity = positions == list(range(len(input.schema)))
        if None in positions or not positions:
            self._project = lambda row, _ps=tuple(positions): tuple(
                row[p] if p is not None else None for p in _ps
            )
        elif len(positions) == 1:
            self._project = lambda row, _p=positions[0]: (row[_p],)
        else:
            self._project = itemgetter(*positions)

    def children(self):
        return (self.input,)

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        if self._identity:
            # The input already has exactly the projected columns in
            # order; pass its batches through untouched.
            return self.input.run_batches(ctx)
        return self._project_batches(ctx)

    def _project_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        project = self._project
        for rows, mults in self.input.run_batches(ctx):
            yield [project(row) for row in rows], mults


class DistinctOp(PhysicalOp):
    """DISTINCT/REDUCED: first occurrence wins, multiplicities drop."""

    name = "Distinct"

    def __init__(self, input: PhysicalOp):
        self.input = input
        self.schema = input.schema
        self.certain = input.certain

    def children(self):
        return (self.input,)

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        seen = set()
        for rows, _ in self.input.run_batches(ctx):
            kept = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    kept.append(row)
            if kept:
                yield kept, None


class OrderByOp(PhysicalOp):
    """ORDER BY (stable); with ``top`` set, a bounded top-k selection
    replaces the full sort (Slice fused in by the optimizer)."""

    name = "OrderBy"

    def __init__(
        self,
        input: PhysicalOp,
        conditions: Tuple[OrderCondition, ...],
        top: Optional[int] = None,
    ):
        self.input = input
        self.conditions = conditions
        self.top = top
        self.schema = input.schema
        self.certain = input.certain
        parts = ", ".join(
            ("DESC(%s)" if c.descending else "%s") % render_expr(c.expression)
            for c in conditions
        )
        self.detail = parts + (f" top={top}" if top is not None else "")

    def children(self):
        return (self.input,) + self.subplans

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        pairs = list(self.input.run(ctx))
        getter = row_getter(self.input.schema, ctx.values.term)
        conditions = self.conditions

        def key_of(pair: Pair) -> Tuple:
            row = pair[0]
            keys = []
            for condition in conditions:
                try:
                    term = ctx.expr.evaluate(condition.expression, getter(row))
                except ExpressionError:
                    term = None
                key = F.order_key(term)
                keys.append(Reversed(key) if condition.descending else key)
            return tuple(keys)

        if self.top is not None:
            # heapq.nsmallest is stable: equivalent to sorted(...)[:n].
            ordered = heapq.nsmallest(self.top, pairs, key=key_of)
        else:
            ordered = sorted(pairs, key=key_of)
        out = _BatchBuilder(ctx.chunk_sizes())
        for row, mult in ordered:
            out.add(row, mult)
            if out.full():
                yield out.flush()
        if len(out):
            yield out.flush()


class SliceOp(PhysicalOp):
    """LIMIT/OFFSET counting solutions: a row of multiplicity ``m`` is
    ``m`` solutions, so how far a plan merged its rows (hop merging,
    DISTINCT) cannot change the answer.  Streaming: stops pulling its
    input once OFFSET+LIMIT solutions have been seen, so upstream scans
    terminate early."""

    name = "StreamingSlice"

    def __init__(self, input: PhysicalOp, offset: int, limit: Optional[int]):
        self.input = input
        self.offset = offset
        self.limit = limit
        self.schema = input.schema
        self.certain = input.certain
        shown = "∞" if limit is None else str(limit)
        self.detail = f"offset={offset} limit={shown}"

    def children(self):
        return (self.input,)

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        skip, left = self.offset, self.limit
        if left == 0:
            return
        for rows, mults in self.input.run_batches(ctx):
            if mults is None:  # one solution per row
                drop = min(skip, len(rows))
                skip -= drop
                rows = rows[drop:] if left is None else rows[drop:drop + left]
                if left is not None:
                    left -= len(rows)
            else:
                kept: List[Row] = []
                kept_mults: List[int] = []
                for row, mult in zip(rows, mults):
                    drop = min(skip, mult)
                    skip -= drop
                    mult -= drop
                    if left is not None:
                        mult = min(mult, left)
                        left -= mult
                    if mult:
                        kept.append(row)
                        kept_mults.append(mult)
                rows, mults = kept, kept_mults
            if rows:
                yield rows, mults
            if left == 0:
                return


class AggregateOp(PhysicalOp):
    """GROUP BY / aggregates / HAVING, plus hidden ``__orderN`` columns
    for ORDER BY conditions over aggregates (port of ``_aggregate``)."""

    name = "Aggregate"

    def __init__(
        self,
        input: PhysicalOp,
        projections: Tuple[Projection, ...],
        group_by: Tuple[Expression, ...],
        group_by_aliases: Tuple[Optional[str], ...],
        having: Tuple[Expression, ...],
        order_by: Tuple[OrderCondition, ...],
    ):
        self.input = input
        self.projections = projections
        self.group_by = group_by
        self.group_by_aliases = group_by_aliases
        self.having = having
        self.order_by = order_by
        self._hidden = [
            (f"__order{i}", condition)
            for i, condition in enumerate(order_by)
            if contains_aggregate(condition.expression)
        ]
        self.schema = tuple(p.var for p in projections) + tuple(
            name for name, _ in self._hidden
        )
        self.certain = frozenset()
        keys = ", ".join(render_expr(e) for e in group_by)
        self.detail = f"group by {keys}" if keys else ""

    def children(self):
        return (self.input,) + self.subplans

    def run_batches(self, ctx: ExecContext) -> Iterator[Batch]:
        getter = row_getter(self.input.schema, ctx.values.term)
        group_exprs = list(self.group_by)
        groups: Dict[Tuple, List[Pair]] = {}
        for row, mult in self.input.run(ctx):
            get = getter(row)
            key_terms = []
            for expr in group_exprs:
                try:
                    key_terms.append(ctx.expr.evaluate(expr, get))
                except ExpressionError:
                    key_terms.append(None)
            groups.setdefault(tuple(key_terms), []).append((row, mult))
        if not group_exprs and not groups:
            # Aggregates over an empty solution sequence: one group.
            groups[()] = []
        alias_names = {
            i: alias
            for i, alias in enumerate(self.group_by_aliases)
            if alias is not None
        }
        encode = ctx.network.encode_term
        out = _BatchBuilder(ctx.chunk_sizes())
        for key, members in groups.items():
            env: Dict[str, Optional[Term]] = {}
            for i, expr in enumerate(group_exprs):
                if isinstance(expr, VarExpr):
                    env[expr.name] = key[i]
                if i in alias_names:
                    env[alias_names[i]] = key[i]

            aggregates = ctx.expr.compute_aggregates(
                self.projections, self.having, self.order_by, members, getter
            )

            def value(expression: Expression) -> Optional[Term]:
                """The group's term of ``expression`` (``None`` on error)."""
                try:
                    return ctx.expr.evaluate_with_aggregates(
                        expression, env.get, aggregates
                    )
                except ExpressionError:
                    return None

            try:  # HAVING: an error fails the group (F.ebv(None) raises)
                if not all(F.ebv(value(having)) for having in self.having):
                    continue
            except ExpressionError:
                continue
            terms = [
                env.get(p.var) if p.expression is None else value(p.expression)
                for p in self.projections
            ] + [value(condition.expression) for _, condition in self._hidden]
            out.add(tuple(None if t is None else encode(t) for t in terms), 1)
            if out.full():
                yield out.flush()
        if len(out):
            yield out.flush()


# ----------------------------------------------------------------------
# Rendering (EXPLAIN, --format=json)
# ----------------------------------------------------------------------


def op_label(op: PhysicalOp, terms: Optional[Sequence] = None) -> str:
    """``Name(detail)``, the detail's constants from ``terms`` (a
    request's :meth:`Constants.bind`; the compile-time table's when
    None)."""
    detail = op.detail if terms is None else op.label(terms)
    return f"{op.name}({detail})" if detail else op.name


def render_physical(op: PhysicalOp, terms: Optional[Sequence] = None) -> str:
    """Indented textual tree of the physical plan (root first)."""
    lines: List[str] = []

    def walk(node: PhysicalOp, depth: int) -> None:
        lines.append("  " * depth + op_label(node, terms))
        for child in node.children():
            walk(child, depth + 1)

    walk(op, 0)
    return "\n".join(lines)


def physical_to_dict(op: PhysicalOp, terms: Optional[Sequence] = None) -> Dict:
    node: Dict = {"op": op.name, "label": op_label(op, terms)}
    if op.schema:
        node["schema"] = list(op.schema)
    kids = [physical_to_dict(child, terms) for child in op.children()]
    if kids:
        node["children"] = kids
    return node


def execution_order(op: PhysicalOp) -> Iterator[PhysicalOp]:
    """The plan's operators leaf first: every child (input, then the
    right side or EXISTS sub-plans) before its parent."""
    for child in op.children():
        yield from execution_order(child)
    yield op


def _seeded_columns(op: PhysicalOp, ids) -> Dict[str, int]:
    """The columns of ``op``'s rows whose value is a plan constant: the
    :class:`SeedColumnOp` columns on its chain of inputs."""
    seeded: Dict[str, int] = {}
    while op is not None:
        if isinstance(op, SeedColumnOp):
            seeded[op.var] = ids[op.slot]
        op = getattr(op, "input", None)
    return seeded


def access_plan(
    root: PhysicalOp, model, lookup, terms: Optional[Sequence] = None
) -> List[str]:
    """The Table 5 access plan of a compiled plan: one line per pattern
    and path step, in execution order.

    Bound positions and the index come from each step's probe layout
    (what the nested-loop probe binds per input row); the join method
    is the planner's static NLJ-vs-hash decision on estimated input
    rows.  A step's output is estimated from that probe, with the
    input columns whose value the plan fixes (a :class:`SeedColumnOp`'s
    constant) bound.  ``terms`` are a request's constants
    (:meth:`Constants.bind`; the compile-time table when None), which
    ``lookup`` resolves for the index statistics.
    """
    if terms is None:
        terms = root.constants.terms
    ids = [_seen_id(constant, lookup) for constant in terms]
    tried = {
        scan for op in execution_order(root) if isinstance(op, TrieJoinOp)
        for scan in op.scans
    }
    lines: List[str] = []
    rows = 1
    for op in execution_order(root):
        step = len(lines) + 1
        if not isinstance(op, PatternJoinOp):
            continue
        probe, scan, tail = op.layout, op.standalone, op.layout.tail(ids)
        # -1: a placeholder for a value bound per input row.
        bound_row = (-1,) * len(op.input.schema)
        index, prefix_length = model.choose_index(probe.pick(bound_row + tail))
        estimate = model.estimate(scan.pick(scan.tail(ids)))
        if op.chain_first:
            rows = 1
        method = "trie" if op in tried else decide_join(rows, estimate).method
        seeded = _seeded_columns(op.input, ids)
        known_row = tuple(seeded.get(var) for var in op.input.schema)
        rows = max(rows, model.estimate(probe.pick(known_row + tail)))
        scan_kind = "index range scan" if prefix_length else "full index scan"
        lines.append(
            f"{step}: {op.label(terms)}  [{op.bound(terms)}] "
            f"{index.spec}M ({scan_kind}, {method})"
        )
    return lines


# ----------------------------------------------------------------------
# EXISTS: seeded sub-plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledExists(ExistsExpr):
    """``EXISTS { group }`` with its group compiled in the enclosing
    graph context ``graph``.

    A pattern step never binds a column already in its input, so an
    unbound outer variable must be *absent* from the seed, not ``None``
    in it (the reference seeds only the bound variables).  Each set of
    seeded names thus has its own sub-plan; ``variants`` maps the names
    to the sub-plan's root and its seed leaf.  The compiler builds the
    one seeding every ``seedable`` variable (the sub-plan EXPLAIN
    shows); an outer row leaving some of them unbound (OPTIONAL, a
    group key) compiles its variant on first use, so a plan never holds
    more variants than the binding shapes its rows actually had.
    """

    seedable: Tuple[str, ...] = ()
    graph: GraphContext = None
    #: The enclosing plan's ``(union_default_graph, filter_pushdown)``
    #: and constant table, which the variants compiled on use share.
    settings: Tuple[bool, bool] = field(kw_only=True)
    constants: Constants = field(kw_only=True, compare=False)
    variants: Dict[Tuple[str, ...], Tuple[PhysicalOp, Tuple[ValuesOp, ...]]] = field(
        default_factory=dict, compare=False
    )

    def holds(self, ctx: ExecContext, get) -> bool:
        """Whether the group has a solution seeded with the bound
        ``seedable`` variables of the outer row ``get`` resolves."""
        names: List[str] = []
        seed: List[int] = []
        for variable in self.seedable:
            term = get(variable)
            if term is not None:
                names.append(variable)
                seed.append(ctx.network.encode_term(term))
        key = tuple(names)
        variant = self.variants.get(key)
        if variant is None:
            compiler = Compiler(
                ctx.network, ctx.model, *self.settings, self.constants
            )
            # Concurrent runs of a cached plan may both compile; either
            # variant is correct, setdefault keeps one.
            variant = self.variants.setdefault(
                key, compiler.seeded(self.group, key, self.graph)
            )
        root, leaves = variant
        for leaf in leaves:
            ctx.seeds[leaf] = [tuple(seed)]
        return next(iter(root.run_batches(ctx)), None) is not None


# ----------------------------------------------------------------------
# Compiler: logical algebra -> physical operator tree
# ----------------------------------------------------------------------


class Compiler:
    """Translates an (optimized) logical plan into physical operators.

    The plan holds no term ID of a query constant: the compiler numbers
    each constant (a term, or a lifted :class:`~repro.sparql.ast.Param`)
    into the plan's :class:`Constants`, which every run resolves once,
    so one plan serves every binding of its shape and stays correct
    across DML.  The store is read only for statistics — the join order
    estimates a lifted slot by its first-seen value — and to intern
    VALUES rows (IDs that never change), which is why the plan cache
    invalidates on a statistics epoch rather than on data
    (:mod:`repro.sparql.plancache`).
    """

    def __init__(
        self,
        network,
        model,
        union_default_graph: bool = True,
        filter_pushdown: bool = True,
        constants: Optional[Constants] = None,
    ):
        self._network = network
        self._model = model
        self._default: GraphContext = None if union_default_graph else 0
        #: The rewrite rules EXISTS groups are optimized with (the
        #: enclosing query's own setting).
        self._filter_pushdown = filter_pushdown
        #: The plan's constant table (an EXISTS variant compiled at run
        #: time uses its plan's).
        self.constants = Constants() if constants is None else constants

    # -- entry ---------------------------------------------------------

    def compile(self, plan: A.Plan, graph: GraphContext) -> PhysicalOp:
        if isinstance(plan, A.Unit):
            return UnitOp()
        if isinstance(plan, A.BGP):
            return self._compile_bgp(
                plan, graph, self.compile(plan.input, graph)
            )
        if isinstance(plan, A.Join):
            left = self.compile(plan.left, graph)
            if isinstance(plan.right, A.Graph):
                return self._compile_graph_join(left, plan.right)
            return JoinOp(left, self.compile(plan.right, graph))
        if isinstance(plan, A.LeftJoin):
            return LeftJoinOp(
                self.compile(plan.left, graph),
                self.compile(plan.right, graph),
            )
        if isinstance(plan, A.Minus):
            return MinusOp(
                self.compile(plan.left, graph),
                self.compile(plan.right, graph),
            )
        if isinstance(plan, A.Union):
            return UnionOp(
                tuple(self.compile(b, graph) for b in plan.branches)
            )
        if isinstance(plan, A.Graph):
            if isinstance(plan.graph, str):
                return self.compile(plan.input, plan.graph)
            return self._compile_graph_join(UnitOp(), plan)
        if isinstance(plan, A.Filter):
            child = self.compile(plan.input, graph)
            bind = _ExistsBinder(self, graph, child)
            return bind.attach(
                FilterApplyOp(
                    child, bind(plan.expression), plan.origin, self.constants
                )
            )
        if isinstance(plan, A.Extend):
            # A SELECT-expression Extend belongs to the select wrapper
            # chain; like all wrappers it resets the graph context (a
            # subquery ignores an enclosing GRAPH, as the evaluator's
            # select_relation does).
            child_graph = self._default if plan.kind == "projection" else graph
            child = self.compile(plan.input, child_graph)
            if plan.var in child.schema:
                if plan.kind == "projection":
                    raise EvaluationError(
                        f"SELECT expression rebinds ?{plan.var}"
                    )
                raise EvaluationError(f"BIND rebinds ?{plan.var}")
            bind = _ExistsBinder(self, child_graph, child)
            return bind.attach(
                ExtendOp(child, plan.var, bind(plan.expression), plan.kind)
            )
        if isinstance(plan, A.Table):
            rows = [
                tuple(
                    None if term is None else self._network.encode_term(term)
                    for term in row
                )
                for row in plan.rows
            ]
            return ValuesOp(plan.variables, rows)
        if isinstance(plan, A.Aggregate):
            child = self.compile(plan.input, self._default)
            if plan.projections is None:
                projections = tuple(
                    Projection(var=v)
                    for v in child.schema
                    if not v.startswith("_:")
                )
            else:
                projections = plan.projections
            # Group keys and aggregate arguments read input rows; HAVING,
            # projections and ORDER BY outside aggregates read the
            # group's key environment.
            keys = tuple(
                e.name for e in plan.group_by if isinstance(e, VarExpr)
            ) + tuple(a for a in plan.group_by_aliases if a is not None)
            bind = _ExistsBinder(self, self._default, child, keys)
            return bind.attach(
                AggregateOp(
                    child,
                    tuple(map(bind.inside, projections)),
                    tuple(bind(e, bind.rows) for e in plan.group_by),
                    plan.group_by_aliases,
                    tuple(map(bind, plan.having)),
                    tuple(map(bind.inside, plan.order_by)),
                )
            )
        if isinstance(plan, A.OrderBy):
            child = self.compile(plan.input, self._default)
            bind = _ExistsBinder(self, self._default, child)
            conditions = tuple(map(bind.inside, plan.conditions))
            return bind.attach(OrderByOp(child, conditions, plan.top))
        if isinstance(plan, A.Project):
            child = self.compile(plan.input, self._default)
            if plan.projections is None:
                names = tuple(
                    v
                    for v in child.schema
                    if not v.startswith("_:") and not v.startswith("__order")
                )
            else:
                names = tuple(p.var for p in plan.projections)
            return ProjectOp(child, names)
        if isinstance(plan, A.Distinct):
            return DistinctOp(self.compile(plan.input, self._default))
        if isinstance(plan, A.Slice):
            return SliceOp(
                self.compile(plan.input, self._default),
                plan.offset,
                plan.limit,
            )
        raise EvaluationError(f"cannot compile plan node {type(plan).__name__}")

    # -- flushes -------------------------------------------------------

    def _compile_bgp(
        self, node: A.BGP, graph: GraphContext, input_op: PhysicalOp
    ) -> PhysicalOp:
        constants = self.constants
        op = input_op
        for var, term in node.seeds:
            op = SeedColumnOp(op, var, term, constants)
        if node.patterns[0].predicate_is_path():  # a closure step
            ordered = list(node.patterns)
            flush: Tuple[int, ...] = ()
        else:
            lookup = self._network.lookup_term
            estimated = [
                EncodedPattern(*(
                    _seen_id(part, lookup)
                    for part in (p.subject, p.predicate, p.object)
                ))
                for p in node.patterns
            ]
            source = {id(e): p for e, p in zip(estimated, node.patterns)}
            ordered = [
                source[id(encoded)]
                for encoded in order_patterns(
                    estimated, self._model, _seen_id(graph, lookup),
                    set(op.schema),
                )
            ]
            # The first step checks every constant of the flush: one
            # absent from the store empties it at run time.
            flush = tuple(
                constants.slot(part)
                for p in ordered
                for part in (p.subject, p.predicate, p.object)
                if not isinstance(part, str)
            )
            graph_slot = _graph_slot(graph, constants)
            if graph_slot is not None:
                flush += (graph_slot,)
        filters = list(node.filters)
        chain_first = node.fresh
        if self._join_graph_cyclic(ordered, graph, op):
            # One step binds every pattern; none is left for the loop.
            op = TrieJoinOp(
                op, ordered, graph, chain_first, constants, flush, filters
            )
            filters, op = self._attach_filters(op.unplaced, op)
            op = _merged(op, node.drop)
            ordered = []
        for i, pattern in enumerate(ordered):
            if pattern.predicate_is_path():
                op = self._closure(op, pattern, graph, chain_first)
            else:
                op = PatternJoinOp(
                    op, pattern, graph, chain_first, constants, flush
                )
            chain_first = False
            flush = ()
            filters, op = self._attach_filters(filters, op)
            if node.drop:
                later = [pattern_variables(p) for p in ordered[i + 1:]]
                op = _merged(op, node.drop.difference(*later))
        for expression in filters:  # pragma: no cover - defensive
            op = FilterApplyOp(op, expression, "pushed", constants)
        columns = [v for v in op.schema if v not in node.ends] + list(node.ends)
        if node.ends and columns != list(op.schema):
            op = ProjectOp(op, tuple(columns))
        return op

    @staticmethod
    def _join_graph_cyclic(
        patterns: List[TriplePattern], graph: GraphContext, input: PhysicalOp
    ) -> bool:
        """Whether a flush's plain patterns form a cyclic join graph
        over the variables ``input`` does not bind.  A flush whose
        patterns read an input column that may be unbound keeps the
        pairwise steps, which probe such a row with a wildcard."""
        if len(patterns) < 3:  # also every closure step's flush
            return False
        edges = []
        for pattern in patterns:
            names = pattern_variables(pattern)
            if isinstance(graph, str):
                names.add(graph)
            if names & set(input.schema) - input.certain:
                return False
            edges.append(names - set(input.schema))
        return _cyclic(edges)

    def _closure(
        self,
        op: PhysicalOp,
        pattern: TriplePattern,
        graph: GraphContext,
        chain_first: bool,
    ) -> PhysicalOp:
        """A closure step, walked from the subject unless only the
        object is bound."""
        subject, obj = pattern.subject, pattern.object
        forward = not (
            isinstance(subject, str)
            and subject not in op.schema
            and not (isinstance(obj, str) and obj not in op.schema)
        )
        inner = TriplePattern(_FROM, pattern.predicate.inner, _TO)
        seeded = self.seeded(
            GroupPattern((inner,)), (_FROM if forward else _TO,), graph,
            "frontier",
        )
        return PathClosureOp(
            op, pattern, graph, chain_first, seeded, forward, self.constants
        )

    def _attach_filters(
        self, filters: List[Expression], op: PhysicalOp
    ) -> Tuple[List[Expression], PhysicalOp]:
        """Apply pushed-down flush filters right after the earliest step
        where their variables are certainly bound (the evaluator's
        per-step eligibility check)."""
        from repro.sparql.ast import expression_variables

        remaining: List[Expression] = []
        for expression in filters:
            if expression_variables(expression) <= op.certain:
                op = FilterApplyOp(op, expression, "pushed", self.constants)
            else:
                remaining.append(expression)
        return remaining, op

    # -- EXISTS --------------------------------------------------------

    def _compile_exists(
        self,
        expression: ExistsExpr,
        graph: GraphContext,
        schema: Tuple[str, ...],
    ) -> CompiledExists:
        """The group compiled in the enclosing graph context (SPARQL
        1.1's active graph), with the sub-plan seeding every outer
        variable it correlates with; the variants for rows that leave
        some unbound are compiled on first use
        (:meth:`CompiledExists.holds`)."""
        correlated = group_variables(expression.group)
        if isinstance(graph, str):
            correlated.add(graph)  # GRAPH ?g: the seeded ?g is the graph
        seedable = tuple(v for v in schema if v in correlated)
        compiled = CompiledExists(
            expression.group, expression.negated, seedable, graph,
            settings=(self._default is None, self._filter_pushdown),
            constants=self.constants,
        )
        compiled.variants[seedable] = self.seeded(
            expression.group, seedable, graph
        )
        return compiled

    def seeded(
        self,
        group: GroupPattern,
        names: Tuple[str, ...],
        graph: GraphContext,
        rows: str = "outer row",
    ) -> Tuple[PhysicalOp, Tuple[ValuesOp, ...]]:
        """``group`` compiled to start from a table of ``names`` that each
        run supplies through ``ctx.seeds`` (an EXISTS sub-plan, a closure
        step): its root and its seed leaves — one per branch where a
        path union starts from the seed."""
        start = A.Table(names, ())
        root = self.compile(
            optimize(
                A.lower_group(
                    group, start, graph_var=isinstance(graph, str),
                    pushdown=self._filter_pushdown,
                ),
                filter_pushdown=self._filter_pushdown,
            ),
            graph,
        )
        leaves = tuple(_seed_leaves(root))
        for leaf in leaves:
            leaf.detail = " ".join([f"?{v}" for v in names] + ["×", rows])
        return root, leaves

    # -- helpers -------------------------------------------------------

    def _compile_graph_join(
        self, left: PhysicalOp, node: A.Graph
    ) -> PhysicalOp:
        right = self.compile(node.input, node.graph)
        return JoinOp(left, right, _graph_slot(node.graph, self.constants))


def _seed_leaves(op: PhysicalOp) -> Iterator[PhysicalOp]:
    """The leaves a seeded group's fold starts from: the bottom of its
    spine, in every branch of a union distributed over the seed."""
    if isinstance(op, UnionOp):
        for branch in op.branches:
            yield from _seed_leaves(branch)
    elif op.children():
        yield from _seed_leaves(op.children()[0])
    else:
        yield op


class _ExistsBinder:
    """Compiles every EXISTS in one operator's expressions into a
    :class:`CompiledExists`; :meth:`attach` lists their sub-plans on the
    operator.

    ``scope`` is the schema of the rows the expressions are evaluated
    over (by default ``input``'s); an aggregate's argument is evaluated
    over the input rows, ``rows``.
    """

    def __init__(
        self,
        compiler: Compiler,
        graph: GraphContext,
        input: PhysicalOp,
        scope: Optional[Tuple[str, ...]] = None,
    ):
        self.compiler = compiler
        self.graph = graph
        self.rows = input.schema
        self.scope = self.rows if scope is None else scope
        self.found: List[CompiledExists] = []

    def __call__(self, expression: Optional[Expression], scope=None):
        if expression is None or not contains_exists(expression):
            return expression
        if scope is None:
            scope = self.scope
        if isinstance(expression, ExistsExpr):
            compiled = self.compiler._compile_exists(
                expression, self.graph, scope
            )
            self.found.append(compiled)
            return compiled
        if isinstance(expression, AggregateExpr):
            scope = self.rows
        return map_children(expression, lambda child: self(child, scope))

    def inside(self, node):
        """A :class:`Projection` or :class:`OrderCondition` with its
        expression bound (``node`` itself when it has no EXISTS)."""
        expression = self(node.expression)
        if expression is node.expression:
            return node
        return replace(node, expression=expression)

    def attach(self, op: PhysicalOp) -> PhysicalOp:
        op.subplans = tuple(
            exists.variants[exists.seedable][0] for exists in self.found
        )
        return op


def compile_plan(
    plan: A.Plan,
    network,
    model,
    union_default_graph: bool = True,
    filter_pushdown: bool = True,
) -> PhysicalOp:
    """Compile an optimized logical plan to a physical operator tree;
    the root carries the plan's :class:`Constants`."""
    compiler = Compiler(network, model, union_default_graph, filter_pushdown)
    root = compiler.compile(plan, compiler._default)
    root.constants = compiler.constants
    return root
