"""Logical query algebra: the layer the AST lowers into.

The layered pipeline is::

    AST  --lower-->  logical plan  --optimize-->  logical plan
         --compile-->  physical operator tree  --execute-->  rows

This module defines the logical plan nodes and the lowering step.  The
lowering mirrors the reference evaluator's group fold *exactly* — the
same flush boundaries, the same element order — so that the optimizer
(:mod:`repro.sparql.optimize`) and the physical compiler
(:mod:`repro.sparql.physical`) can reproduce the reference semantics
operator by operator.

Nodes are immutable dataclasses; rewrite rules are pure
``Plan -> Plan`` functions that rebuild the tree.

Two static analyses live here because both the optimizer and the
compiler need them:

``schema_vars(plan)``
    The *exact* set of variables the plan's output relation binds.
    This is exact (not an approximation) because the reference
    evaluator's output columns are structurally determined.

``certain_vars(plan)``
    Variables that are provably bound (non-``None``) in *every* output
    row.  Filter push-down places a FILTER where its variables are
    certain; since later joins only ever *fill* unbound values, a
    filter applied at (or after) the point where its variables are
    certain sees exactly the values the reference evaluator saw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple
from typing import Union as _TypingUnion

from repro.rdf.terms import Term
from repro.sparql.ast import (
    BindPattern,
    Expression,
    FilterPattern,
    GraphGraphPattern,
    GroupPattern,
    InExpr,
    MinusPattern,
    OptionalPattern,
    OrderCondition,
    PathAlternative,
    PathInverse,
    PathLink,
    PathNegated,
    PathRepeat,
    PathSequence,
    Projection,
    SelectQuery,
    SubSelectPattern,
    TermExpr,
    TermOrVar,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
    VarExpr,
    contains_aggregate,
    expression_variables,
    pattern_variables,
)
from repro.sparql.errors import EvaluationError
from repro.sparql.expr import constant_equality
from repro.sparql.unparse import render_expr, render_term, render_triple

#: Prefix of the hop variables: the hops of a lowered path and PGQL's
#: anonymous intermediate vertices.  ``#`` opens a comment in SPARQL and
#: PGQL reserves ``_``, so no query text names one; the ``_:`` start
#: keeps them out of ``SELECT *`` like blank nodes.
HOP = "_:#"


def is_hop(variable: str) -> bool:
    return variable.startswith(HOP)


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """The join identity: one empty solution."""


@dataclass(frozen=True)
class BGP:
    """One basic-graph-pattern flush: plain triple patterns, or the one
    closure step ``s p* o`` (``p+``, ``p?``) of a lowered path.

    ``fresh`` marks the node that *starts* a flush in the reference
    evaluator (a fresh ``_evaluate_bgp`` call): its first physical step
    always executes — and records — even over an empty input, while
    later steps of the same flush are skipped once the relation runs
    dry.  ``seeds`` are sargable ``?v = <constant>`` filters the
    optimizer converted into bound columns; ``filters`` are pushed-down
    FILTERs applied as early as their variables are certain.  ``drop``
    are the hop variables no later node reads (set by the optimizer's
    ``merge_hops``): each goes right after the last step reading it.
    ``ends``, on a path's last BGP, are the path's endpoints it binds,
    in subject-object order: its columns end with them, as the
    reference walker's do, whichever end the plan walked from.
    """

    input: "Plan"
    patterns: Tuple[TriplePattern, ...]
    seeds: Tuple[Tuple[str, Term], ...] = ()
    filters: Tuple[Expression, ...] = ()
    fresh: bool = True
    drop: FrozenSet[str] = frozenset()
    ends: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Join:
    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class LeftJoin:
    """OPTIONAL."""

    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class Minus:
    left: "Plan"
    right: "Plan"


@dataclass(frozen=True)
class Union:
    branches: Tuple["Plan", ...]


@dataclass(frozen=True)
class Graph:
    """GRAPH <iri> { ... } / GRAPH ?g { ... }: inner runs under a new
    graph context."""

    graph: TermOrVar
    input: "Plan"


@dataclass(frozen=True)
class Filter:
    """A FILTER application point.

    ``origin`` drives the runtime counter: ``"group_end"`` for filters
    applied at their group's end, ``"pushed"`` for filters the
    optimizer moved earlier (counted as ``filter.pushdown``).
    """

    input: "Plan"
    expression: Expression
    origin: str = "group_end"


@dataclass(frozen=True)
class Extend:
    """BIND / SELECT-expression: append one computed column.

    ``kind`` selects the rebind error message (``"bind"`` vs
    ``"projection"``) so compile-time errors read exactly like the
    reference evaluator's runtime errors.
    """

    input: "Plan"
    var: str
    expression: Expression
    kind: str = "bind"


@dataclass(frozen=True)
class Table:
    """VALUES: an inline relation (None encodes UNDEF)."""

    variables: Tuple[str, ...]
    rows: Tuple[Tuple[Optional[Term], ...], ...]


@dataclass(frozen=True)
class Aggregate:
    """GROUP BY / aggregate projections (also HAVING and the hidden
    columns for ORDER BY over aggregates)."""

    input: "Plan"
    projections: Optional[Tuple[Projection, ...]]  # None: SELECT *
    group_by: Tuple[Expression, ...]
    group_by_aliases: Tuple[Optional[str], ...]
    having: Tuple[Expression, ...]
    order_by: Tuple[OrderCondition, ...]


@dataclass(frozen=True)
class OrderBy:
    input: "Plan"
    conditions: Tuple[OrderCondition, ...]
    #: When set, only the first ``top`` rows in sort order are needed
    #: (a Slice was fused in by the optimizer): the physical operator
    #: uses a bounded top-k selection instead of a full sort.
    top: Optional[int] = None


@dataclass(frozen=True)
class Project:
    input: "Plan"
    projections: Optional[Tuple[Projection, ...]]  # None: SELECT *


@dataclass(frozen=True)
class Distinct:
    input: "Plan"


@dataclass(frozen=True)
class Slice:
    """LIMIT/OFFSET.  Counts solutions: a row of multiplicity ``m`` is
    ``m`` of them."""

    input: "Plan"
    offset: int = 0
    limit: Optional[int] = None


Plan = _TypingUnion[
    Unit, BGP, Join, LeftJoin, Minus, Union, Graph, Filter,
    Extend, Table, Aggregate, OrderBy, Project, Distinct, Slice,
]

#: Nodes with a single ``input`` child (the group "spine").
_SPINE_ATTR = {
    BGP: "input", Graph: "input", Filter: "input",
    Extend: "input", Aggregate: "input", OrderBy: "input",
    Project: "input", Distinct: "input", Slice: "input",
    Join: "left", LeftJoin: "left", Minus: "left",
}


def spine_child(plan: Plan) -> Optional[Plan]:
    """The child on the group's left spine (execution predecessor)."""
    attr = _SPINE_ATTR.get(type(plan))
    return getattr(plan, attr) if attr is not None else None


def with_spine_child(plan: Plan, child: Plan) -> Plan:
    attr = _SPINE_ATTR[type(plan)]
    return replace(plan, **{attr: child})


def children(plan: Plan) -> Tuple[Plan, ...]:
    if isinstance(plan, (Join, LeftJoin, Minus)):
        return (plan.left, plan.right)
    if isinstance(plan, Union):
        return plan.branches
    child = spine_child(plan)
    return (child,) if child is not None else ()


# ----------------------------------------------------------------------
# Static analyses
# ----------------------------------------------------------------------


def _pattern_vars_with_graph(
    pattern: TriplePattern, graph_var: Optional[str]
) -> set:
    found = pattern_variables(pattern)
    if graph_var is not None:
        found.add(graph_var)
    return found


def schema_vars(plan: Plan, graph_var: Optional[str] = None) -> FrozenSet[str]:
    """The exact variable set of the plan's output relation."""
    if isinstance(plan, Unit):
        return frozenset()
    if isinstance(plan, BGP):
        out = set(schema_vars(plan.input, graph_var))
        out.update(v for v, _ in plan.seeds)
        for pattern in plan.patterns:
            out |= _pattern_vars_with_graph(pattern, graph_var)
        return frozenset(out - plan.drop)
    if isinstance(plan, (Join, LeftJoin)):
        return schema_vars(plan.left, graph_var) | schema_vars(
            plan.right, graph_var
        )
    if isinstance(plan, Minus):
        return schema_vars(plan.left, graph_var)
    if isinstance(plan, Union):
        out: set = set()
        for branch in plan.branches:
            out |= schema_vars(branch, graph_var)
        return frozenset(out)
    if isinstance(plan, Graph):
        inner_var = plan.graph if isinstance(plan.graph, str) else None
        return schema_vars(plan.input, inner_var)
    if isinstance(plan, Filter):
        return schema_vars(plan.input, graph_var)
    if isinstance(plan, Extend):
        return schema_vars(plan.input, graph_var) | {plan.var}
    if isinstance(plan, Table):
        return frozenset(plan.variables)
    if isinstance(plan, Aggregate):
        if plan.projections is None:
            # SELECT *: projections resolve from the WHERE relation's
            # visible (non-blank) variables at compile time.
            out = {
                v
                for v in schema_vars(plan.input, graph_var)
                if not v.startswith("_:")
            }
        else:
            out = {p.var for p in plan.projections}
        for i, condition in enumerate(plan.order_by):
            if contains_aggregate(condition.expression):
                out.add(f"__order{i}")
        return frozenset(out)
    if isinstance(plan, Project):
        if plan.projections is None:
            return frozenset(
                v
                for v in schema_vars(plan.input, graph_var)
                if not v.startswith("_:") and not v.startswith("__order")
            )
        return frozenset(p.var for p in plan.projections)
    if isinstance(plan, (Distinct, Slice, OrderBy)):
        return schema_vars(plan.input, graph_var)
    raise EvaluationError(f"unknown plan node {type(plan).__name__}")


def certain_vars(plan: Plan, graph_var: Optional[str] = None) -> FrozenSet[str]:
    """Variables provably bound (never ``None``) in every output row."""
    if isinstance(plan, Unit):
        return frozenset()
    if isinstance(plan, BGP):
        # Pattern scans only ever bind real term IDs; seeds are looked
        # up constants.  The graph variable (when it binds) comes from
        # named graphs only, so it is never zero/None either.
        return schema_vars(plan, graph_var)
    if isinstance(plan, Join):
        # The compatible-mapping merge fills left Nones from the right,
        # so a variable certain on either side is certain in the join.
        return certain_vars(plan.left, graph_var) | certain_vars(
            plan.right, graph_var
        )
    if isinstance(plan, LeftJoin):
        return certain_vars(plan.left, graph_var)
    if isinstance(plan, Minus):
        return certain_vars(plan.left, graph_var)
    if isinstance(plan, Union):
        if not plan.branches:
            return frozenset()
        out = certain_vars(plan.branches[0], graph_var)
        for branch in plan.branches[1:]:
            out &= certain_vars(branch, graph_var)
        return out
    if isinstance(plan, Graph):
        inner_var = plan.graph if isinstance(plan.graph, str) else None
        return certain_vars(plan.input, inner_var)
    if isinstance(plan, Filter):
        return certain_vars(plan.input, graph_var)
    if isinstance(plan, Extend):
        # BIND values may be None (expression errors bind nothing).
        return certain_vars(plan.input, graph_var)
    if isinstance(plan, Table):
        certain = set()
        for i, variable in enumerate(plan.variables):
            if all(row[i] is not None for row in plan.rows):
                certain.add(variable)
        return frozenset(certain)
    if isinstance(plan, Aggregate):
        # Group keys and aggregate outputs can be None (errors, empty
        # groups); stay conservative.
        return frozenset()
    if isinstance(plan, Project):
        if plan.projections is None:
            return certain_vars(plan.input, graph_var)
        inner = certain_vars(plan.input, graph_var)
        return frozenset(
            p.var
            for p in plan.projections
            if p.expression is None and p.var in inner
        )
    if isinstance(plan, (Distinct, Slice, OrderBy)):
        return certain_vars(plan.input, graph_var)
    raise EvaluationError(f"unknown plan node {type(plan).__name__}")


# ----------------------------------------------------------------------
# Lowering: AST -> logical plan
# ----------------------------------------------------------------------


def lower_group(
    group: GroupPattern,
    start: Plan = Unit(),
    hops: Optional[Iterator[int]] = None,
    graph_var: bool = False,
    pushdown: bool = True,
) -> Plan:
    """Lower one group to a plan chain, mirroring the reference fold.

    Consecutive triple patterns accumulate into one flush (a ``BGP``
    node followed by the lowered property paths, :func:`lower_path`);
    any other element — including a FILTER — breaks the accumulation,
    exactly like the evaluator's ``flush_bgp``.  Group FILTERs wrap the
    finished chain in syntax order; the optimizer later sinks the
    pushable ones.  The fold starts from ``start`` (an EXISTS group
    starts from its seed row).  ``hops`` numbers the query's hop
    variables; ``graph_var`` marks a group under ``GRAPH ?var``, where
    paths are not supported.  With ``pushdown`` (the optimizer's
    ``filter_pushdown``), a ``FILTER (?v = <constant>)`` of the group
    binds ``?v`` before its paths, so they walk from ``?v``.
    """
    plan: Plan = start
    bgp: List[TriplePattern] = []
    hops = count() if hops is None else hops
    seeded = frozenset(
        match[0]
        for element in group.elements
        if pushdown and isinstance(element, FilterPattern)
        and (match := constant_equality(element.expression)) is not None
    )

    def sub(inner: GroupPattern, inner_graph_var: bool = graph_var) -> Plan:
        return lower_group(inner, Unit(), hops, inner_graph_var, pushdown)

    def flush() -> Plan:
        nonlocal plan, bgp
        if not bgp:
            return plan
        plain = tuple(p for p in bgp if not p.predicate_is_path())
        fresh = True
        if plain:
            plan = BGP(plan, plain, fresh=True)
            fresh = False
        for pattern in bgp:
            if pattern.predicate_is_path():
                if graph_var:
                    raise EvaluationError(
                        "property paths inside GRAPH ?var are not supported"
                    )
                plan = lower_path(plan, pattern, hops, fresh, seeded)
                fresh = False
        bgp = []
        return plan

    for element in group.elements:
        if isinstance(element, TriplePattern):
            bgp.append(element)
            continue
        flush()
        if isinstance(element, FilterPattern):
            pass  # applied below, after the whole chain
        elif isinstance(element, OptionalPattern):
            plan = LeftJoin(plan, sub(element.group))
        elif isinstance(element, UnionPattern):
            plan = Join(plan, Union(tuple(map(sub, element.branches))))
        elif isinstance(element, MinusPattern):
            plan = Minus(plan, sub(element.group))
        elif isinstance(element, GraphGraphPattern):
            inner = sub(element.group, isinstance(element.graph, str))
            plan = Join(plan, Graph(element.graph, inner))
        elif isinstance(element, BindPattern):
            plan = Extend(plan, element.var, element.expression, kind="bind")
        elif isinstance(element, ValuesPattern):
            plan = Join(plan, Table(element.variables, element.rows))
        elif isinstance(element, SubSelectPattern):
            plan = Join(plan, lower_select(element.query, hops, pushdown))
        elif isinstance(element, GroupPattern):
            plan = Join(plan, sub(element))
        else:
            raise EvaluationError(f"unsupported pattern {element!r}")
    flush()
    for element in group.elements:
        if isinstance(element, FilterPattern):
            plan = Filter(plan, element.expression, origin="group_end")
    return plan


def lower_path(
    plan: Plan,
    pattern: TriplePattern,
    hops: Iterator[int],
    fresh: bool,
    seeded: FrozenSet[str] = frozenset(),
) -> Plan:
    """A property-path pattern as pattern steps (SPARQL 1.1 §18.2.2.4):
    ``^p`` swaps positions, ``p|q`` is a union of the branches and a
    fixed-length ``p/q`` chains steps over hidden hop variables; a
    negated set ``!(p|q)`` is a step over a hidden predicate filtered by
    ``NOT IN``.  Only ``p*``, ``p+`` and ``p?`` stay whole, as closure
    steps.  Union branches start from ``plan`` itself when it is a leaf
    (a seed row then reaches every branch) or when one has a closure
    (which walks from a bound end, zero-length paths included, like the
    reference walker); otherwise the union is joined onto ``plan``.
    A chain walks from a bound end, a ``seeded`` variable counting as
    bound."""
    ends = (pattern.subject, pattern.object)
    branches = _path_steps(*ends[:1], pattern.predicate, *ends[1:], hops)
    if len(branches) == 1:
        return _chain(plan, branches[0], fresh, hops, ends, seeded)
    if isinstance(plan, (Unit, Table)) or any(
        isinstance(step.predicate, PathRepeat) for b in branches for step in b
    ):
        return Union(tuple(
            _chain(plan, b, fresh, hops, ends, seeded) for b in branches
        ))
    return Join(plan, Union(tuple(
        _chain(Unit(), b, True, hops, ends, seeded) for b in branches
    )))


def _path_steps(s, path, o, hops: Iterator[int]) -> List[List[TriplePattern]]:
    """``s path o`` as alternative branches of steps."""
    if isinstance(path, PathLink):
        return [[TriplePattern(s, path.iri, o)]]
    if isinstance(path, PathInverse):
        return _path_steps(o, path.inner, s, hops)
    if isinstance(path, PathAlternative):
        return [b for option in path.options for b in _path_steps(s, option, o, hops)]
    if isinstance(path, PathSequence):
        ends = [s, *(f"{HOP}h{next(hops)}" for _ in path.steps[1:]), o]
        branches: List[List[TriplePattern]] = [[]]
        for i, step in enumerate(path.steps):
            tails = _path_steps(ends[i], step, ends[i + 1], hops)
            branches = [b + tail for b in branches for tail in tails]
        return branches
    return [[TriplePattern(s, path, o)]]


def _chain(
    plan: Plan,
    steps: List[TriplePattern],
    fresh: bool,
    hops: Iterator[int],
    ends: Tuple[TermOrVar, TermOrVar],
    seeded: FrozenSet[str],
) -> Plan:
    """One branch over ``plan``, walked from the end ``plan`` binds: runs
    of plain steps are BGPs, each closure step a BGP of its own."""
    bound = schema_vars(plan)

    def free(part) -> bool:
        return isinstance(part, str) and part not in bound

    def anchored(step: TriplePattern) -> bool:
        return not all(
            free(part) and part not in seeded
            for part in (step.subject, step.object)
        )

    # An inverse step swaps its ends, so the bound end of the path may
    # sit in either position of the first or the last step.
    if not anchored(steps[0]) and anchored(steps[-1]):
        steps = steps[::-1]
    for run in _runs(steps):
        filters = []
        for i, step in enumerate(run):
            if isinstance(step.predicate, PathNegated):
                hop = f"{HOP}p{next(hops)}"
                iris = tuple(map(TermExpr, step.predicate.iris))
                filters.append(InExpr(VarExpr(hop), iris, negated=True))
                run[i] = replace(step, predicate=hop)
        plan = BGP(plan, tuple(run), filters=tuple(filters), fresh=fresh)
        fresh = False
    return replace(plan, ends=tuple(dict.fromkeys(filter(free, ends))))


def _runs(steps: List[TriplePattern]) -> List[List[TriplePattern]]:
    runs: List[List[TriplePattern]] = []
    for step in steps:
        closure = isinstance(step.predicate, PathRepeat)
        if closure or not runs or isinstance(runs[-1][0].predicate, PathRepeat):
            runs.append([])
        runs[-1].append(step)
    return runs


def lower_select(
    query: SelectQuery,
    hops: Optional[Iterator[int]] = None,
    pushdown: bool = True,
) -> Plan:
    """Lower a SELECT (or subquery) to its full wrapper chain."""
    plan = lower_group(query.where, hops=hops, pushdown=pushdown)
    projections: Optional[Tuple[Projection, ...]] = (
        None if query.is_star() else query.projections
    )
    order_conditions = list(query.order_by)
    if query.group_by or query.has_aggregates():
        plan = Aggregate(
            plan,
            projections,
            query.group_by,
            query.group_by_aliases,
            query.having,
            query.order_by,
        )
        # ORDER BY conditions over aggregates were computed per group
        # into hidden __orderN columns; rewrite the conditions to sort
        # on those columns.
        order_conditions = [
            OrderCondition(VarExpr(f"__order{i}"), condition.descending)
            if contains_aggregate(condition.expression)
            else condition
            for i, condition in enumerate(query.order_by)
        ]
    else:
        for projection in query.projections:
            if projection.expression is not None:
                plan = Extend(
                    plan, projection.var, projection.expression,
                    kind="projection",
                )
    if order_conditions:
        plan = OrderBy(plan, tuple(order_conditions))
    plan = Project(plan, projections)
    if query.distinct or query.reduced:
        plan = Distinct(plan)
    if query.offset != 0 or query.limit is not None:
        plan = Slice(plan, query.offset, query.limit)
    return plan


# ----------------------------------------------------------------------
# Rendering (EXPLAIN, golden snapshots, --format=json)
# ----------------------------------------------------------------------


def _label(plan: Plan, params) -> str:
    if isinstance(plan, Unit):
        return "Unit"
    if isinstance(plan, BGP):
        parts = [render_triple(p, params) for p in plan.patterns]
        label = f"BGP({'; '.join(parts)})"
        if plan.drop:
            label += " merge[%s]" % " ".join(sorted(plan.drop))
        if plan.seeds:
            seeds = ", ".join(
                f"?{v}={render_term(t, params)}" for v, t in plan.seeds
            )
            label += f" seeds[{seeds}]"
        if plan.filters:
            label += " filters[%s]" % ", ".join(
                render_expr(f, params) for f in plan.filters
            )
        return label
    if isinstance(plan, Join):
        return "Join"
    if isinstance(plan, LeftJoin):
        return "LeftJoin"
    if isinstance(plan, Minus):
        return "Minus"
    if isinstance(plan, Union):
        return "Union"
    if isinstance(plan, Graph):
        graph = (
            f"?{plan.graph}"
            if isinstance(plan.graph, str)
            else render_term(plan.graph, params)
        )
        return f"Graph({graph})"
    if isinstance(plan, Filter):
        expression = render_expr(plan.expression, params)
        return f"Filter({expression}) [{plan.origin}]"
    if isinstance(plan, Extend):
        return f"Extend(?{plan.var} := {render_expr(plan.expression)})"
    if isinstance(plan, Table):
        return "Values(%s × %d)" % (
            " ".join(f"?{v}" for v in plan.variables), len(plan.rows),
        )
    if isinstance(plan, Aggregate):
        keys = ", ".join(render_expr(e) for e in plan.group_by)
        return f"Aggregate(group by {keys})" if keys else "Aggregate"
    if isinstance(plan, OrderBy):
        parts = ", ".join(
            ("DESC(%s)" if c.descending else "%s") % render_expr(c.expression)
            for c in plan.conditions
        )
        label = f"OrderBy({parts})"
        if plan.top is not None:
            label += f" top={plan.top}"
        return label
    if isinstance(plan, Project):
        if plan.projections is None:
            return "Project(*)"
        return "Project(%s)" % " ".join(f"?{p.var}" for p in plan.projections)
    if isinstance(plan, Distinct):
        return "Distinct"
    if isinstance(plan, Slice):
        limit = "∞" if plan.limit is None else str(plan.limit)
        return f"Slice(offset={plan.offset} limit={limit})"
    return type(plan).__name__


def render(plan: Plan, params: Sequence[Term] = ()) -> str:
    """Indented textual tree (root first); ``params`` are a request's
    values of the plan's lifted slots (their compile-time values when
    empty)."""
    lines: List[str] = []

    def walk(node: Plan, depth: int) -> None:
        lines.append("  " * depth + _label(node, params))
        for child in children(node):
            walk(child, depth + 1)

    walk(plan, 0)
    return "\n".join(lines)


def to_dict(plan: Plan, params: Sequence[Term] = ()) -> Dict:
    """JSON-serializable plan tree (for ``repro explain --format=json``)."""
    node: Dict = {"op": type(plan).__name__, "label": _label(plan, params)}
    kids = [to_dict(child, params) for child in children(plan)]
    if kids:
        node["children"] = kids
    return node
