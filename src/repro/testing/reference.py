"""The reference query evaluator: the differential suite's oracle.

Evaluates the AST of :mod:`repro.sparql.ast` against one model of a
:class:`repro.store.SemanticNetwork` by interpreting it directly: BGPs
run through the planner in :mod:`repro.sparql.plan`; solutions flow
through :class:`Relation` bags of ID rows, combined by the
:func:`join` / :func:`left_join` / :func:`minus` / :func:`union`
algebra defined here.

Production code never runs this module: every query, update WHERE,
EXISTS and EXPLAIN goes through the layered pipeline (algebra →
optimizer → physical operators, see :mod:`repro.sparql.executor`).
The evaluator is kept as the executable semantic specification the
differential tests compare that pipeline against.  Expression and
aggregate semantics are shared with the pipeline through
:mod:`repro.sparql.expr`, so the two cannot diverge there by
construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.rdf.quad import Triple
from repro.rdf.terms import Term
from repro.sparql import functions as F
from repro.sparql.ast import (
    AskQuery,
    BindPattern,
    ConstructQuery,
    ExistsExpr,
    Expression,
    FilterPattern,
    GraphGraphPattern,
    GroupPattern,
    MinusPattern,
    OptionalPattern,
    Projection,
    SelectQuery,
    SubSelectPattern,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
    VarExpr,
    contains_aggregate,
)
from repro.sparql.errors import EvaluationError, ExpressionError
from repro.sparql.expr import (
    ExpressionEvaluator,
    Reversed as _Reversed,
    constant_equality as _constant_equality,
    contains_exists as _contains_exists,
    group_variables as _group_variables,
    internal_checks as _internal_checks,
    passes_checks as _passes_checks,
    row_getter,
)
from repro.testing.paths import PathEvaluator
from repro.sparql.physical import merge_compatible
from repro.sparql.plan import (
    EncodedPattern,
    GraphContext,
    decide_join,
    order_patterns,
)
from repro.sparql.results import SelectResult

# ----------------------------------------------------------------------
# Relations: the oracle's solution-sequence representation
# ----------------------------------------------------------------------

Row = Tuple[Optional[int], ...]

#: The ID of a query constant absent from the store: no index entry
#: holds it, so its pattern matches nothing and estimates at 0 rows.
_ABSENT = -1

#: Optional per-row callback threaded in by the evaluator; used to tick
#: a cooperative query deadline from inside the materialization loops
#: (a cartesian join can otherwise build millions of rows between
#: deadline checks).  ``None`` keeps the loops callback-free.
Tick = Optional[Callable[[], None]]


class Relation:
    """A bag of solutions: variables, rows and (optional) multiplicities."""

    __slots__ = ("variables", "rows", "mults")

    def __init__(
        self,
        variables: Sequence[str],
        rows: List[Row],
        mults: Optional[List[int]] = None,
    ):
        self.variables: Tuple[str, ...] = tuple(variables)
        self.rows = rows
        self.mults = mults  # None means "all 1"
        if mults is not None and len(mults) != len(rows):
            raise ValueError("multiplicity vector length mismatch")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def unit() -> "Relation":
        """The join identity: one empty solution."""
        return Relation((), [()])

    @staticmethod
    def empty(variables: Sequence[str] = ()) -> "Relation":
        return Relation(variables, [])

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def cardinality(self) -> int:
        """Total solution count including multiplicities."""
        if self.mults is None:
            return len(self.rows)
        return sum(self.mults)

    def mult(self, index: int) -> int:
        return 1 if self.mults is None else self.mults[index]

    def index_of(self, variable: str) -> int:
        return self.variables.index(variable)

    def column(self, variable: str) -> List[Optional[int]]:
        index = self.index_of(variable)
        return [row[index] for row in self.rows]

    def iter_with_mult(self) -> Iterable[Tuple[Row, int]]:
        if self.mults is None:
            for row in self.rows:
                yield row, 1
        else:
            yield from zip(self.rows, self.mults)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def project(self, variables: Sequence[str]) -> "Relation":
        """Keep only ``variables`` (missing ones become unbound columns)."""
        positions = [
            self.variables.index(v) if v in self.variables else None
            for v in variables
        ]
        rows = [
            tuple(row[p] if p is not None else None for p in positions)
            for row in self.rows
        ]
        return Relation(variables, rows, list(self.mults) if self.mults else None)

    def distinct(self) -> "Relation":
        """Collapse duplicate rows (drops multiplicities)."""
        seen = set()
        rows: List[Row] = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return Relation(self.variables, rows)

    def compact(self) -> "Relation":
        """Merge duplicate rows into multiplicities."""
        counts: Dict[Row, int] = {}
        for row, mult in self.iter_with_mult():
            counts[row] = counts.get(row, 0) + mult
        rows = list(counts.keys())
        mults = [counts[row] for row in rows]
        if all(m == 1 for m in mults):
            return Relation(self.variables, rows)
        return Relation(self.variables, rows, mults)

    def extended(self, variable: str, values: List[Optional[int]]) -> "Relation":
        """Append a new column (used by BIND)."""
        if variable in self.variables:
            raise ValueError(f"variable ?{variable} already bound")
        rows = [row + (value,) for row, value in zip(self.rows, values)]
        return Relation(
            self.variables + (variable,),
            rows,
            list(self.mults) if self.mults else None,
        )


def join(left: Relation, right: Relation, tick: Tick = None) -> Relation:
    """Hash join on shared variables (SPARQL compatible-mapping join).

    Unbound (``None``) values are compatible with anything, per the
    SPARQL definition; rows with unbound join keys are handled by the
    slow path.  Multiplicities multiply.
    """
    shared = [v for v in left.variables if v in right.variables]
    out_vars = left.variables + tuple(
        v for v in right.variables if v not in left.variables
    )
    right_extra = [
        i for i, v in enumerate(right.variables) if v not in left.variables
    ]
    if not shared:
        rows: List[Row] = []
        mults: List[int] = []
        for lrow, lmult in left.iter_with_mult():
            for rrow, rmult in right.iter_with_mult():
                if tick is not None:
                    tick()
                rows.append(lrow + tuple(rrow[i] for i in right_extra))
                mults.append(lmult * rmult)
        return _build(out_vars, rows, mults)

    left_pos = [left.variables.index(v) for v in shared]
    right_pos = [right.variables.index(v) for v in shared]

    # Partition the right side: rows fully bound on the join key go in a
    # hash table; rows with unbound key values need compatibility checks.
    table: Dict[Row, List[Tuple[Row, int]]] = {}
    loose: List[Tuple[Row, int]] = []
    for rrow, rmult in right.iter_with_mult():
        key = tuple(rrow[i] for i in right_pos)
        if None in key:
            loose.append((rrow, rmult))
        else:
            table.setdefault(key, []).append((rrow, rmult))

    rows = []
    mults = []
    for lrow, lmult in left.iter_with_mult():
        if tick is not None:
            tick()
        key = tuple(lrow[i] for i in left_pos)
        if None not in key:
            for rrow, rmult in table.get(key, ()):
                if tick is not None:
                    tick()
                rows.append(lrow + tuple(rrow[i] for i in right_extra))
                mults.append(lmult * rmult)
            for rrow, rmult in loose:
                merged = merge_compatible(lrow, rrow, left_pos, right_pos, right_extra)
                if merged is not None:
                    rows.append(merged)
                    mults.append(lmult * rmult)
        else:
            for rrow, rmult in right.iter_with_mult():
                if tick is not None:
                    tick()
                merged = merge_compatible(lrow, rrow, left_pos, right_pos, right_extra)
                if merged is not None:
                    rows.append(merged)
                    mults.append(lmult * rmult)
    return _build(out_vars, rows, mults)


def left_join(left: Relation, right: Relation, tick: Tick = None) -> Relation:
    """SPARQL OPTIONAL: keep left rows with no compatible right row."""
    shared = [v for v in left.variables if v in right.variables]
    out_vars = left.variables + tuple(
        v for v in right.variables if v not in left.variables
    )
    right_extra = [
        i for i, v in enumerate(right.variables) if v not in left.variables
    ]
    left_pos = [left.variables.index(v) for v in shared]
    right_pos = [right.variables.index(v) for v in shared]
    padding = (None,) * len(right_extra)

    table: Dict[Row, List[Tuple[Row, int]]] = {}
    loose: List[Tuple[Row, int]] = []
    for rrow, rmult in right.iter_with_mult():
        key = tuple(rrow[i] for i in right_pos)
        if None in key:
            loose.append((rrow, rmult))
        else:
            table.setdefault(key, []).append((rrow, rmult))

    rows: List[Row] = []
    mults: List[int] = []
    for lrow, lmult in left.iter_with_mult():
        if tick is not None:
            tick()
        key = tuple(lrow[i] for i in left_pos)
        matched = False
        if shared and None not in key:
            candidates = list(table.get(key, ())) + loose
        else:
            candidates = list(right.iter_with_mult())
        for rrow, rmult in candidates:
            if tick is not None:
                tick()
            merged = merge_compatible(lrow, rrow, left_pos, right_pos, right_extra)
            if merged is not None:
                rows.append(merged)
                mults.append(lmult * rmult)
                matched = True
        if not matched:
            rows.append(lrow + padding)
            mults.append(lmult)
    return _build(out_vars, rows, mults)


def minus(left: Relation, right: Relation, tick: Tick = None) -> Relation:
    """SPARQL MINUS: remove left rows compatible with some right row
    (sharing at least one bound variable)."""
    shared = [v for v in left.variables if v in right.variables]
    if not shared:
        return left
    left_pos = [left.variables.index(v) for v in shared]
    right_pos = [right.variables.index(v) for v in shared]
    right_keys = set()
    for rrow, _ in right.iter_with_mult():
        right_keys.add(tuple(rrow[i] for i in right_pos))
    rows = []
    mults = []
    for lrow, lmult in left.iter_with_mult():
        if tick is not None:
            tick()
        key = tuple(lrow[i] for i in left_pos)
        if None in key:
            compatible = any(
                all(a is None or b is None or a == b for a, b in zip(key, rkey))
                and any(a is not None and b is not None for a, b in zip(key, rkey))
                for rkey in right_keys
            )
        else:
            compatible = key in right_keys
        if not compatible:
            rows.append(lrow)
            mults.append(lmult)
    return _build(left.variables, rows, mults)


def union(relations: Sequence[Relation], tick: Tick = None) -> Relation:
    """Bag union, aligning variables by name."""
    all_vars: List[str] = []
    for relation in relations:
        for variable in relation.variables:
            if variable not in all_vars:
                all_vars.append(variable)
    rows: List[Row] = []
    mults: List[int] = []
    for relation in relations:
        positions = [
            relation.variables.index(v) if v in relation.variables else None
            for v in all_vars
        ]
        for row, mult in relation.iter_with_mult():
            if tick is not None:
                tick()
            rows.append(tuple(row[p] if p is not None else None for p in positions))
            mults.append(mult)
    return _build(tuple(all_vars), rows, mults)


def _build(variables: Sequence[str], rows: List[Row], mults: List[int]) -> Relation:
    if all(m == 1 for m in mults):
        return Relation(variables, rows)
    return Relation(variables, rows, mults)




class Evaluator:
    """Evaluates parsed queries against one (virtual) model."""

    def __init__(
        self,
        network,
        model,
        union_default_graph: bool = True,
        filter_pushdown: bool = True,
        deadline=None,
    ):
        self._network = network
        self._values = network.values
        self._model = model
        self._union_default = union_default_graph
        self._filter_pushdown = filter_pushdown
        #: Optional repro.sparql.deadline.Deadline, ticked from the
        #: scan/join/filter loops; None keeps those loops check-free.
        self._deadline = deadline
        #: Per-row callback for the relation-algebra operators (join,
        #: left_join, minus, union) so their materialization loops also
        #: honour the deadline; None when no deadline is set.
        self._tick = None if deadline is None else deadline.tick
        self._paths = PathEvaluator(
            model, self._encode_constant, deadline=deadline
        )
        #: Shared scalar/aggregate semantics (also used by the layered
        #: pipeline); EXISTS routes back into this evaluator.
        self._expr = ExpressionEvaluator(exists=self._evaluate_exists)
        #: The active graph: the graph context of the group whose
        #: expressions are being evaluated (EXISTS runs against it).
        self._graph: GraphContext = self._default_graph_context()

    @contextmanager
    def _active_graph(self, graph: GraphContext):
        outer, self._graph = self._graph, graph
        try:
            yield
        finally:
            self._graph = outer

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def select(self, query: SelectQuery) -> SelectResult:
        relation, projections = self._evaluate_select(query)
        return self._materialize(relation, projections)

    def ask(self, query: AskQuery) -> bool:
        relation = self.evaluate_group(query.where, self._default_graph_context())
        return len(relation) > 0

    def construct(self, query: ConstructQuery) -> List[Triple]:
        relation = self.evaluate_group(query.where, self._default_graph_context())
        produced: List[Triple] = []
        seen: Set[Triple] = set()
        index = {v: i for i, v in enumerate(relation.variables)}
        for row in relation.rows:
            for template in query.template:
                triple = self._instantiate(template, row, index)
                if triple is not None and triple not in seen:
                    seen.add(triple)
                    produced.append(triple)
        return produced

    def select_relation(self, query: SelectQuery) -> Relation:
        """Evaluate a SELECT to an (ID-level) relation — used by subqueries."""
        relation, projections = self._evaluate_select(query)
        return self._project_relation(relation, projections)

    def describe(self, query) -> List[Triple]:
        """DESCRIBE: concise bounded description (all triples whose
        subject is a target resource)."""
        target_ids: List[int] = []
        constants = [t for t in query.targets if not isinstance(t, str)]
        variables = [t for t in query.targets if isinstance(t, str)]
        for term in constants:
            encoded = self._encode_constant(term)
            if encoded is not None:
                target_ids.append(encoded)
        if variables:
            where = query.where if query.where is not None else GroupPattern(())
            relation = self.evaluate_group(where, self._default_graph_context())
            for variable in variables:
                if variable in relation.variables:
                    position = relation.variables.index(variable)
                    target_ids.extend(
                        row[position]
                        for row in relation.rows
                        if row[position] is not None
                    )
        described: List[Triple] = []
        seen: Set[Triple] = set()
        for target in dict.fromkeys(target_ids):
            for s, p, o, _ in self._model.scan((target, None, None, None)):
                triple = Triple(
                    self._values.term(s),
                    self._values.term(p),
                    self._values.term(o),
                )
                if triple not in seen:
                    seen.add(triple)
                    described.append(triple)
        return described

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------

    def _evaluate_select(
        self, query: SelectQuery
    ) -> Tuple[Relation, Sequence[Projection]]:
        # A SELECT (also a subquery nested in GRAPH) evaluates its WHERE
        # and its projection/HAVING/ORDER BY expressions in the default
        # graph.
        with self._active_graph(self._default_graph_context()):
            relation = self.evaluate_group(
                query.where, self._default_graph_context()
            )
            projections = self._resolve_projections(query, relation)
            order_conditions = list(query.order_by)
            if query.group_by or query.has_aggregates():
                # ORDER BY conditions over aggregates (DESC(COUNT(*)))
                # are computed per group into hidden columns.
                relation, order_conditions = self._aggregate(
                    query, relation, projections
                )
            else:
                relation = self._apply_expression_projections(
                    relation, projections
                )
            if order_conditions:
                relation = self._order(relation, order_conditions)
        relation = self._project_relation(relation, projections)
        if query.distinct or query.reduced:
            relation = relation.distinct()
        relation = self._slice(relation, query)
        return relation, projections

    def _resolve_projections(
        self, query: SelectQuery, relation: Relation
    ) -> Sequence[Projection]:
        if not query.is_star():
            return query.projections
        return [
            Projection(var=v)
            for v in relation.variables
            if not v.startswith("_:")
        ]

    def _apply_expression_projections(
        self, relation: Relation, projections: Sequence[Projection]
    ) -> Relation:
        for projection in projections:
            if projection.expression is None:
                continue
            if projection.var in relation.variables:
                raise EvaluationError(
                    f"SELECT expression rebinds ?{projection.var}"
                )
            values = []
            getter = self._row_getter(relation)
            for row in relation.rows:
                try:
                    term = self.evaluate_expression(
                        projection.expression, getter(row)
                    )
                    values.append(self._encode_term(term))
                except ExpressionError:
                    values.append(None)
            relation = relation.extended(projection.var, values)
        return relation

    def _order(
        self, relation: Relation, conditions: Sequence["OrderCondition"]
    ) -> Relation:
        getter = self._row_getter(relation)

        def sort_key(indexed: Tuple[int, Tuple]) -> Tuple:
            _, row = indexed
            keys = []
            for condition in conditions:
                try:
                    term = self.evaluate_expression(condition.expression, getter(row))
                except ExpressionError:
                    term = None
                key = F.order_key(term)
                keys.append(_Reversed(key) if condition.descending else key)
            return tuple(keys)

        order = sorted(enumerate(relation.rows), key=sort_key)
        rows = [relation.rows[i] for i, _ in order]
        mults = (
            [relation.mults[i] for i, _ in order] if relation.mults else None
        )
        return Relation(relation.variables, rows, mults)

    def _project_relation(
        self, relation: Relation, projections: Sequence[Projection]
    ) -> Relation:
        return relation.project([p.var for p in projections])

    def _slice(self, relation: Relation, query: SelectQuery) -> Relation:
        if query.offset == 0 and query.limit is None:
            return relation
        # Solutions, not rows: a row of multiplicity m is m solutions.
        skip, left = query.offset, query.limit
        rows: List[Row] = []
        mults: List[int] = []
        for row, mult in relation.iter_with_mult():
            drop = min(skip, mult)
            skip -= drop
            mult -= drop
            if left is not None:
                mult = min(mult, left)
                left -= mult
            if mult:
                rows.append(row)
                mults.append(mult)
        return Relation(relation.variables, rows, mults)

    def _materialize(
        self, relation: Relation, projections: Sequence[Projection]
    ) -> SelectResult:
        variables = [p.var for p in projections]
        decoded: List[Tuple[Optional[Term], ...]] = []
        term_of = self._values.term
        for row, mult in relation.iter_with_mult():
            terms = tuple(
                term_of(value) if value is not None and value > 0 else None
                for value in row
            )
            # Bag semantics: a row standing for N identical solutions
            # expands to N result rows.
            decoded.extend([terms] * mult)
        return SelectResult(variables, decoded)

    # ------------------------------------------------------------------
    # Group evaluation
    # ------------------------------------------------------------------

    def _default_graph_context(self) -> GraphContext:
        return None if self._union_default else 0

    def evaluate_group(
        self,
        group: GroupPattern,
        graph: GraphContext,
        outer: Optional[Relation] = None,
    ) -> Relation:
        with self._active_graph(graph):
            return self._evaluate_group(group, graph, outer)

    def _evaluate_group(
        self,
        group: GroupPattern,
        graph: GraphContext,
        outer: Optional[Relation],
    ) -> Relation:
        if self._deadline is not None:
            self._deadline.check()
        relation = outer if outer is not None else Relation.unit()
        # SPARQL applies a group's FILTERs to the whole group, but a
        # filter whose variables are already (fully) bound can be pushed
        # down safely — later joins never change bound values.  This is
        # the filter push-down a cost-based optimizer does, and the
        # reason EQ3-style queries don't materialize huge intermediates.
        pending = [
            _PendingFilter(element.expression)
            for element in group.elements
            if isinstance(element, FilterPattern)
        ]
        bgp: List[TriplePattern] = []

        def flush_bgp() -> None:
            nonlocal relation, bgp
            if bgp:
                relation = self._evaluate_bgp(bgp, graph, relation, pending)
                bgp = []

        for element in group.elements:
            if isinstance(element, TriplePattern):
                bgp.append(element)
                continue
            flush_bgp()
            if isinstance(element, FilterPattern):
                pass  # gathered above
            elif isinstance(element, OptionalPattern):
                right = self.evaluate_group(element.group, graph)
                relation = left_join(relation, right, tick=self._tick)
            elif isinstance(element, UnionPattern):
                branches = [
                    self.evaluate_group(branch, graph)
                    for branch in element.branches
                ]
                relation = join(
                    relation, union(branches, tick=self._tick), tick=self._tick
                )
            elif isinstance(element, MinusPattern):
                right = self.evaluate_group(element.group, graph)
                relation = minus(relation, right, tick=self._tick)
            elif isinstance(element, GraphGraphPattern):
                relation = self._evaluate_graph(element, relation)
            elif isinstance(element, BindPattern):
                relation = self._evaluate_bind(element, relation)
            elif isinstance(element, ValuesPattern):
                relation = join(
                    relation, self._values_relation(element), tick=self._tick
                )
            elif isinstance(element, SubSelectPattern):
                relation = join(
                    relation, self.select_relation(element.query),
                    tick=self._tick,
                )
            elif isinstance(element, GroupPattern):
                relation = join(
                    relation, self.evaluate_group(element, graph),
                    tick=self._tick,
                )
            else:
                raise EvaluationError(f"unsupported pattern {element!r}")
            relation = self._apply_eligible_filters(pending, relation)
        flush_bgp()
        for entry in pending:
            if not entry.applied:
                relation = self._apply_filter(entry.expression, relation)
        return relation

    def _seed_constant_filters(
        self, pending: List["_PendingFilter"], relation: Relation
    ) -> Relation:
        """Bind variables constrained by ``?v = <constant>`` filters.

        Only exact-term constants are substituted (IRIs and plain string
        literals); numeric equality is value-based across datatypes, so
        numeric filters keep their FILTER semantics.
        """
        if not self._filter_pushdown:
            return relation
        for entry in pending:
            if entry.applied or not entry.pushable:
                continue
            match = _constant_equality(entry.expression)
            if match is None:
                continue
            variable, term = match
            if variable in relation.variables:
                continue  # ordinary push-down will handle it
            term_id = self._encode_constant(term)
            if term_id is None:  # no rows, but every seed's column
                relation = Relation.empty(relation.variables + (variable,))
            else:
                relation = relation.extended(
                    variable, [term_id] * len(relation.rows)
                )
            entry.applied = True
        return relation

    def _apply_eligible_filters(
        self, pending: List["_PendingFilter"], relation: Relation
    ) -> Relation:
        if not self._filter_pushdown:
            return relation
        for entry in pending:
            if entry.applied or not entry.pushable:
                continue
            if not entry.variables <= set(relation.variables):
                continue
            # Columns containing unbound values may still be filled by
            # later joins; such filters must wait for the group's end.
            positions = [relation.variables.index(v) for v in entry.variables]
            if any(
                row[p] is None for row in relation.rows for p in positions
            ):
                continue
            relation = self._apply_filter(entry.expression, relation)
            entry.applied = True
        return relation

    def _evaluate_graph(
        self, element: GraphGraphPattern, relation: Relation
    ) -> Relation:
        context: GraphContext = element.graph
        if not isinstance(context, str):
            context = self._encode_constant(context)
        if context is None:  # no rows, but the group's variables
            inner = self.evaluate_group(element.group, _ABSENT)
            return join(relation, Relation.empty(inner.variables))
        inner = self.evaluate_group(element.group, context)
        return join(relation, inner, tick=self._tick)

    def _evaluate_bind(self, element: BindPattern, relation: Relation) -> Relation:
        if element.var in relation.variables:
            raise EvaluationError(f"BIND rebinds ?{element.var}")
        getter = self._row_getter(relation)
        values = []
        for row in relation.rows:
            try:
                term = self.evaluate_expression(element.expression, getter(row))
                values.append(self._encode_term(term))
            except ExpressionError:
                values.append(None)
        return relation.extended(element.var, values)

    def _values_relation(self, element: ValuesPattern) -> Relation:
        rows = []
        for row in element.rows:
            rows.append(
                tuple(
                    None if term is None else self._encode_term(term)
                    for term in row
                )
            )
        return Relation(element.variables, rows)

    def _apply_filter(self, expression: Expression, relation: Relation) -> Relation:
        getter = self._row_getter(relation)
        deadline = self._deadline
        keep_rows: List[Tuple] = []
        keep_mults: List[int] = []
        for index, (row, mult) in enumerate(relation.iter_with_mult()):
            if deadline is not None:
                deadline.tick()
            try:
                value = self.evaluate_expression(expression, getter(row))
                passed = F.ebv(value)
            except ExpressionError:
                passed = False
            if passed:
                keep_rows.append(row)
                keep_mults.append(mult)
        if all(m == 1 for m in keep_mults):
            return Relation(relation.variables, keep_rows)
        return Relation(relation.variables, keep_rows, keep_mults)

    # ------------------------------------------------------------------
    # BGP evaluation
    # ------------------------------------------------------------------

    def _evaluate_bgp(
        self,
        patterns: List[TriplePattern],
        graph: GraphContext,
        relation: Relation,
        pending: Optional[List["_PendingFilter"]] = None,
    ) -> Relation:
        plain: List[EncodedPattern] = []
        path_steps: List[TriplePattern] = []
        for pattern in patterns:
            if pattern.predicate_is_path():
                path_steps.append(pattern)
            else:
                plain.append(self._encode_pattern(pattern))
        # Sargable-filter rewriting: FILTER (?v = <constant>) makes ?v a
        # known constant; seed it as a bound column so every pattern
        # mentioning ?v becomes an index probe instead of a scan (this
        # is what Oracle's dynamic sampling achieves for EQ3).
        if pending is not None:
            relation = self._seed_constant_filters(pending, relation)
        # Every step runs, also over an empty relation, so the result
        # binds every variable of the flush (``SELECT *`` lists them).
        ordered = order_patterns(
            plain, self._model, graph, set(relation.variables)
        )
        for encoded in ordered:
            relation = self._pattern_step(encoded, graph, relation)
            if pending is not None:
                relation = self._apply_eligible_filters(pending, relation)
        for pattern in path_steps:
            relation = self._path_step(pattern, graph, relation)
            if pending is not None:
                relation = self._apply_eligible_filters(pending, relation)
        return relation

    def _encode_pattern(self, pattern: TriplePattern) -> EncodedPattern:
        """``pattern`` with its constants' IDs; a constant absent from
        the store is :data:`_ABSENT`, which matches no quad."""
        slots = []
        for part in (pattern.subject, pattern.predicate, pattern.object):
            if not isinstance(part, str):
                part = self._encode_constant(part)
                if part is None:
                    part = _ABSENT
            slots.append(part)
        return EncodedPattern(*slots)

    def _pattern_step(
        self, pattern: EncodedPattern, graph: GraphContext, relation: Relation
    ) -> Relation:
        estimate = self._model.estimate(pattern.store_pattern(graph))
        shared = pattern.variables() & set(relation.variables)
        # A bound GRAPH variable connects the pattern too (the NG model's
        # e-e-K-V idiom relies on probing by graph).
        if isinstance(graph, str) and graph in relation.variables:
            shared = shared | {graph}
        decision = decide_join(len(relation.rows), estimate)
        # The strategy actually executed: a disconnected pattern is a
        # cartesian scan-join regardless of the NLJ/hash thresholds.
        if (shared and decision.method == "hash join") or (
            not shared and len(relation.rows) > 1
        ):
            # hash join or cartesian: one standalone scan, then join
            return join(
                relation, self._scan_to_relation(pattern, graph),
                tick=self._tick,
            )
        return self._nested_loop_step(pattern, graph, relation)

    def _graph_slot_and_filter(
        self, graph: GraphContext, row_value: Optional[int] = None
    ) -> Tuple[Optional[int], bool, Optional[str]]:
        """(g slot for the scan, require-named-graph?, graph var name)."""
        if graph is None:
            return None, False, None
        if isinstance(graph, int):
            return graph, False, None
        if row_value is not None:
            return row_value, False, graph
        return None, True, graph

    def _scan_to_relation(
        self, pattern: EncodedPattern, graph: GraphContext
    ) -> Relation:
        """Evaluate one pattern standalone into a relation."""
        slots = (pattern.subject, pattern.predicate, pattern.object)
        variables: List[str] = []
        positions: List[int] = []
        for position, slot in enumerate(slots):
            if isinstance(slot, str) and slot not in variables:
                variables.append(slot)
                positions.append(position)
        g_slot, named_only, graph_var = self._graph_slot_and_filter(graph)
        scan_pattern = (
            slots[0] if isinstance(slots[0], int) else None,
            slots[1] if isinstance(slots[1], int) else None,
            slots[2] if isinstance(slots[2], int) else None,
            g_slot,
        )
        # If the GRAPH variable also occurs as a pattern slot (the NG
        # idiom GRAPH ?e { ?e ?k ?v }), require quad.graph to equal that
        # slot instead of binding a duplicate column.
        graph_checks: List[int] = []
        bind_graph = graph_var is not None
        if bind_graph and graph_var in variables:
            graph_checks = [
                position
                for position, slot in enumerate(slots)
                if slot == graph_var
            ]
            bind_graph = False
        elif bind_graph:
            variables = variables + [graph_var]
        rows: List[Tuple] = []
        checks = _internal_checks(slots)
        deadline = self._deadline
        for quad in self._model.scan(scan_pattern):
            if deadline is not None:
                deadline.tick()
            if named_only and quad[3] == 0:
                continue
            if checks and not _passes_checks(quad, checks):
                continue
            if graph_checks and any(quad[3] != quad[p] for p in graph_checks):
                continue
            row = tuple(quad[p] for p in positions)
            if bind_graph:
                row = row + (quad[3],)
            rows.append(row)
        return Relation(variables, rows)

    def _nested_loop_step(
        self, pattern: EncodedPattern, graph: GraphContext, relation: Relation
    ) -> Relation:
        slots = (pattern.subject, pattern.predicate, pattern.object)
        var_index = {v: i for i, v in enumerate(relation.variables)}
        # Output: existing columns plus newly bound pattern variables.
        new_vars: List[str] = []
        extract_positions: List[int] = []
        for position, slot in enumerate(slots):
            if isinstance(slot, str) and slot not in var_index and slot not in new_vars:
                new_vars.append(slot)
                extract_positions.append(position)
        graph_is_var = isinstance(graph, str)
        graph_bound = graph_is_var and graph in var_index
        # The GRAPH variable may also occur as a pattern slot (GRAPH ?e
        # { ?e ?k ?v }): then quad.graph must equal that slot's value
        # rather than binding a second column.
        graph_checks: List[int] = []
        bind_graph = graph_is_var and not graph_bound
        if bind_graph and graph in new_vars:
            graph_checks = [
                position for position, slot in enumerate(slots) if slot == graph
            ]
            bind_graph = False
        if bind_graph:
            new_vars = new_vars + [graph]
        out_vars = relation.variables + tuple(new_vars)
        checks = _internal_checks(slots)
        rows: List[Tuple] = []
        mults: List[int] = []
        scan = self._model.scan
        deadline = self._deadline
        for row, mult in relation.iter_with_mult():
            if deadline is not None:
                deadline.tick()
            bound_slots = []
            skip_row = False
            for slot in slots:
                if isinstance(slot, int):
                    bound_slots.append(slot)
                elif slot in var_index:
                    value = row[var_index[slot]]
                    if value is None:
                        bound_slots.append(None)
                    else:
                        bound_slots.append(value)
                else:
                    bound_slots.append(None)
            if skip_row:
                continue
            if graph is None:
                g_slot: Optional[int] = None
                named_only = False
            elif isinstance(graph, int):
                g_slot, named_only = graph, False
            elif graph_bound:
                g_value = row[var_index[graph]]
                g_slot, named_only = g_value, False
            else:
                g_slot, named_only = None, True
            scan_pattern = (bound_slots[0], bound_slots[1], bound_slots[2], g_slot)
            for quad in scan(scan_pattern):
                if deadline is not None:
                    deadline.tick()
                if named_only and quad[3] == 0:
                    continue
                if checks and not _passes_checks(quad, checks):
                    continue
                if graph_checks and any(quad[3] != quad[p] for p in graph_checks):
                    continue
                extension = tuple(quad[p] for p in extract_positions)
                if bind_graph:
                    extension = extension + (quad[3],)
                rows.append(row + extension)
                mults.append(mult)
        if all(m == 1 for m in mults):
            return Relation(out_vars, rows)
        return Relation(out_vars, rows, mults)

    # ------------------------------------------------------------------
    # Path steps
    # ------------------------------------------------------------------

    def _path_step(
        self, pattern: TriplePattern, graph: GraphContext, relation: Relation
    ) -> Relation:
        if isinstance(graph, str):
            raise EvaluationError(
                "property paths inside GRAPH ?var are not supported"
            )
        path = pattern.predicate
        subject, obj = pattern.subject, pattern.object
        var_index = {v: i for i, v in enumerate(relation.variables)}

        def resolve(part) -> Tuple[str, Optional[Union[int, str]]]:
            """('const', id) / ('boundvar', name) / ('freevar', name)."""
            if isinstance(part, str):
                if part in var_index:
                    return ("boundvar", part)
                return ("freevar", part)
            encoded = self._encode_constant(part)
            return ("const", encoded)

        s_kind, s_val = resolve(subject)
        o_kind, o_val = resolve(obj)
        absent = (s_kind == "const" and s_val is None) or (
            o_kind == "const" and o_val is None
        )
        if absent or not relation.rows:
            ends = [
                v for v in dict.fromkeys((subject, obj))
                if isinstance(v, str) and v not in var_index
            ]
            return Relation.empty(relation.variables + tuple(ends))

        # Choose direction: prefer walking from a bound endpoint.
        if s_kind != "freevar":
            return self._path_from_bound(
                path, graph, relation, s_kind, s_val, o_kind, o_val,
                subject_side=True,
            )
        if o_kind != "freevar":
            return self._path_from_bound(
                path, graph, relation, o_kind, o_val, s_kind, s_val,
                subject_side=False,
            )
        # Both endpoints free: all-pairs evaluation, then join.
        variables = [subject, obj] if subject != obj else [subject]
        rows: List[Tuple] = []
        mults: List[int] = []
        for start, end, mult in self._paths.pairs(path, graph):
            if subject == obj:
                if start != end:
                    continue
                rows.append((start,))
            else:
                rows.append((start, end))
            mults.append(mult)
        pair_relation = (
            Relation(variables, rows)
            if all(m == 1 for m in mults)
            else Relation(variables, rows, mults)
        )
        return join(relation, pair_relation, tick=self._tick)

    def _path_from_bound(
        self,
        path,
        graph: GraphContext,
        relation: Relation,
        bound_kind: str,
        bound_val,
        other_kind: str,
        other_val,
        subject_side: bool,
    ) -> Relation:
        """Walk the path from the bound endpoint for every input row."""
        var_index = {v: i for i, v in enumerate(relation.variables)}
        walker = self._paths.ends_from if subject_side else self._paths.starts_to
        cache: Dict[int, Dict[int, int]] = {}

        def reach(node: int) -> Dict[int, int]:
            found = cache.get(node)
            if found is None:
                found = walker(path, {node: 1}, graph)
                cache[node] = found
            return found

        other_is_free = other_kind == "freevar"
        out_vars = relation.variables + ((other_val,) if other_is_free else ())
        rows: List[Tuple] = []
        mults: List[int] = []
        for row, mult in relation.iter_with_mult():
            if bound_kind == "const":
                start = bound_val
            else:
                start = row[var_index[bound_val]]
                if start is None:
                    continue
            ends = reach(start)
            if other_is_free:
                for end, path_mult in ends.items():
                    rows.append(row + (end,))
                    mults.append(mult * path_mult)
            else:
                if other_kind == "const":
                    target = other_val
                else:
                    target = row[var_index[other_val]]
                path_mult = ends.get(target, 0)
                if path_mult:
                    rows.append(row)
                    mults.append(mult * path_mult)
        if all(m == 1 for m in mults):
            return Relation(out_vars, rows)
        return Relation(out_vars, rows, mults)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _row_getter(self, relation: Relation):
        """Build a per-row variable->Term lookup factory."""
        return row_getter(relation.variables, self._values.term)

    def evaluate_expression(self, expression: Expression, get) -> Term:
        """Evaluate an expression; ``get(name)`` resolves variables."""
        return self._expr.evaluate(expression, get)

    def _evaluate_exists(self, expression: ExistsExpr, get) -> Term:
        # Correlated: seed the group with the current row's bindings and
        # evaluate it in the active graph (SPARQL 1.1); under GRAPH ?g
        # the seed carries the row's ?g, which selects that graph.
        graph = self._graph
        candidates = _group_variables(expression.group)
        if isinstance(graph, str):
            candidates.add(graph)
        bindings: Dict[str, int] = {}
        for variable in candidates:
            term = get(variable)
            if term is not None:
                bindings[variable] = self._encode_term(term)
        seed = Relation(tuple(bindings), [tuple(bindings.values())])
        result = self.evaluate_group(expression.group, graph, outer=seed)
        exists = len(result) > 0
        return F.boolean(exists != expression.negated)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _aggregate(
        self,
        query: SelectQuery,
        relation: Relation,
        projections: Sequence[Projection],
    ) -> Tuple[Relation, List["OrderCondition"]]:
        from repro.sparql.ast import OrderCondition

        getter = self._row_getter(relation)
        group_exprs = list(query.group_by)
        # Group rows.
        groups: Dict[Tuple, List[Tuple[Tuple, int]]] = {}
        for row, mult in relation.iter_with_mult():
            get = getter(row)
            key_terms = []
            for expr in group_exprs:
                try:
                    key_terms.append(self.evaluate_expression(expr, get))
                except ExpressionError:
                    key_terms.append(None)
            key = tuple(key_terms)
            groups.setdefault(key, []).append((row, mult))
        if not group_exprs and not groups:
            # Aggregates over an empty solution sequence form one group.
            groups[()] = []
        # ORDER BY conditions containing aggregates (DESC(COUNT(*)))
        # are computed per group into hidden columns.
        order_conditions: List[OrderCondition] = []
        hidden_order: List[Tuple[str, "OrderCondition"]] = []
        for i, condition in enumerate(query.order_by):
            if contains_aggregate(condition.expression):
                hidden = f"__order{i}"
                hidden_order.append((hidden, condition))
                order_conditions.append(
                    OrderCondition(VarExpr(hidden), condition.descending)
                )
            else:
                order_conditions.append(condition)
        # Compute output rows.
        out_vars: List[str] = []
        for projection in projections:
            out_vars.append(projection.var)
        out_vars.extend(name for name, _ in hidden_order)
        out_rows: List[Tuple] = []
        alias_names: Dict[int, str] = {
            i: alias
            for i, alias in enumerate(query.group_by_aliases)
            if alias is not None
        }
        for key, members in groups.items():
            # Environment for expressions over this group.
            env: Dict[str, Optional[Term]] = {}
            for i, expr in enumerate(group_exprs):
                if isinstance(expr, VarExpr):
                    env[expr.name] = key[i]
                if i in alias_names:
                    env[alias_names[i]] = key[i]

            def get(name: str, _env=env) -> Optional[Term]:
                return _env.get(name)

            aggregates = self._expr.compute_aggregates(
                projections, query.having, query.order_by, members, getter
            )

            def agg_get(name: str, _get=get) -> Optional[Term]:
                return _get(name)

            row_values: List[Optional[int]] = []
            skip_group = False
            for having in query.having:
                try:
                    value = self._expr.evaluate_with_aggregates(
                        having, agg_get, aggregates
                    )
                    if not F.ebv(value):
                        skip_group = True
                        break
                except ExpressionError:
                    skip_group = True
                    break
            if skip_group:
                continue
            for projection in projections:
                if projection.expression is None:
                    term = env.get(projection.var)
                    row_values.append(
                        None if term is None else self._encode_term(term)
                    )
                else:
                    try:
                        term = self._expr.evaluate_with_aggregates(
                            projection.expression, agg_get, aggregates
                        )
                        row_values.append(self._encode_term(term))
                    except ExpressionError:
                        row_values.append(None)
            for _, condition in hidden_order:
                try:
                    term = self._expr.evaluate_with_aggregates(
                        condition.expression, agg_get, aggregates
                    )
                    row_values.append(self._encode_term(term))
                except ExpressionError:
                    row_values.append(None)
            out_rows.append(tuple(row_values))
        return Relation(out_vars, out_rows), order_conditions

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------

    def _encode_constant(self, term: Term) -> Optional[int]:
        """Encode a query constant without interning new values."""
        return self._network.lookup_term(term)

    def _encode_term(self, term: Term) -> int:
        """Encode a computed term, interning it if new (like Oracle's
        values table growing for computed results)."""
        return self._network.encode_term(term)

    def _instantiate(
        self, template: TriplePattern, row: Tuple, index: Dict[str, int]
    ) -> Optional[Triple]:
        def resolve(part):
            if isinstance(part, str):
                position = index.get(part)
                if position is None:
                    return None
                value = row[position]
                if value is None or value <= 0:
                    return None
                return self._values.term(value)
            return part

        subject = resolve(template.subject)
        predicate = resolve(template.predicate)
        obj = resolve(template.object)
        if subject is None or predicate is None or obj is None:
            return None
        try:
            return Triple(subject, predicate, obj)
        except Exception:
            return None


# ----------------------------------------------------------------------
# Module helpers
# ----------------------------------------------------------------------


class _PendingFilter:
    """A group FILTER awaiting application, with push-down metadata."""

    __slots__ = ("expression", "variables", "applied", "pushable")

    def __init__(self, expression: Expression):
        from repro.sparql.ast import expression_variables

        self.expression = expression
        self.variables = expression_variables(expression)
        self.applied = False
        # EXISTS filters evaluate correlated subgroups; they stay at the
        # group's end where they run exactly once per final row.
        self.pushable = not _contains_exists(expression)


# The expression/aggregate machinery (plus the pattern-level helpers
# shared with the layered pipeline) lives in repro.sparql.expr.
