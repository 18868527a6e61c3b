"""Rule-based logical optimizer: pure ``Plan -> Plan`` rewrite rules.

Rules (applied in order by :func:`optimize`):

``fold_constants``
    Evaluate variable-free subexpressions in FILTER and BIND at plan
    time (``1 + 2`` becomes ``3``).  Errors and EXISTS/aggregates are
    left alone so runtime semantics are untouched.

``push_filters``
    The static counterpart of the reference evaluator's dynamic filter
    push-down.  Group-end FILTERs sink down their group's spine to the
    earliest point where every variable is *certainly* bound; sargable
    ``?v = <constant>`` filters become seed columns on the group's
    first flush (turning scans over ``?v`` into index probes — the
    EQ3 rewrite from the paper's Section 4.3); a group that starts
    with ``GRAPH ?g`` passes the seed to the subgroup's first flush
    when that flush binds ``?v`` (``?v`` not ``?g``), which turns an
    NG edge-KV query into a subject-seeded range scan.  Because
    certainty is a static under-approximation of the evaluator's
    runtime check, a pushed filter never runs earlier than the
    evaluator would have run it relative to value-producing operators
    — results are identical.

``drop_unit_joins``
    ``Join(Unit, X)`` becomes ``X`` (and ``Join(X, Unit)``): ``Unit``
    is the join identity.  A group that starts with ``GRAPH ?g`` then
    compiles to the subgroup itself, the seed ``push_filters`` handed
    it included.

``prune_extends``
    Drop BIND columns that nothing downstream reads (dead code
    elimination).  Conservative: disabled for ``SELECT *`` plans and
    for variables bound more than once (rebind errors must surface).

``place_slice``
    Move LIMIT/OFFSET below row-preserving operators and fuse it into
    ORDER BY as a bounded top-k selection.

``merge_hops``
    Mark each hop variable (:data:`repro.sparql.algebra.HOP`: a lowered
    path's hops, PGQL's anonymous intermediate vertices) for dropping at
    the BGP or closure step that holds its last mention; the compiler
    drops it right after the last step reading it and merges the rows
    that become equal, summing their multiplicities — exact under bag
    semantics, and what keeps a k-hop count at one row per reached node
    instead of one per path.  Variables the query text names are never
    touched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.sparql.algebra import (
    BGP,
    Aggregate,
    Extend,
    Filter,
    Graph,
    Join,
    LeftJoin,
    Minus,
    OrderBy,
    Plan,
    Project,
    Slice,
    Union,
    Unit,
    certain_vars,
    children,
    is_hop,
    schema_vars,
    spine_child,
    with_spine_child,
)
from repro.sparql.ast import (
    ExistsExpr,
    Expression,
    TermExpr,
    VarExpr,
    contains_aggregate,
    expression_variables,
    pattern_variables,
)
from repro.sparql.errors import ExpressionError
from repro.sparql.expr import (
    ExpressionEvaluator,
    constant_equality,
    contains_exists,
    expression_children,
    group_variables,
    map_children,
)

Rule = Callable[[Plan], Plan]


def _map_children(plan: Plan, fn: Callable[[Plan], Plan]) -> Plan:
    """Rebuild ``plan`` with every direct child passed through ``fn``."""
    if isinstance(plan, (Join, LeftJoin, Minus)):
        return replace(plan, left=fn(plan.left), right=fn(plan.right))
    if isinstance(plan, Union):
        return replace(plan, branches=tuple(fn(b) for b in plan.branches))
    child = spine_child(plan)
    if child is None:
        return plan
    return with_spine_child(plan, fn(child))


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------

_FOLDER = ExpressionEvaluator()


def _no_vars_get(name: str):  # pragma: no cover - never called
    raise ExpressionError(f"unbound ?{name} in constant expression")


def fold_expression(expression: Expression) -> Expression:
    """Fold variable-free subexpressions to their Term value."""
    expression = map_children(expression, fold_expression)
    if isinstance(expression, (TermExpr, VarExpr)):
        return expression
    if expression_variables(expression):
        return expression
    if contains_exists(expression) or contains_aggregate(expression):
        return expression
    try:
        return TermExpr(_FOLDER.evaluate(expression, _no_vars_get))
    except ExpressionError:
        # Leave erroring expressions alone: at runtime an error makes
        # the filter reject the row / the BIND produce no value, and
        # those semantics must stay observable.
        return expression


def fold_constants(plan: Plan) -> Plan:
    plan = _map_children(plan, fold_constants)
    if isinstance(plan, Filter):
        return replace(plan, expression=fold_expression(plan.expression))
    if isinstance(plan, Extend):
        return replace(plan, expression=fold_expression(plan.expression))
    return plan


# ----------------------------------------------------------------------
# Filter push-down
# ----------------------------------------------------------------------

#: Node kinds a sinking filter may pass through on the group spine.
#: Everything else (Unit, Table, Union, Graph, subquery wrappers)
#: becomes the application point.
_SINKABLE = (BGP, Join, LeftJoin, Minus, Filter, Extend)


def push_filters(plan: Plan) -> Plan:
    """Sink group-end FILTERs; seed sargable constants."""
    return _push(plan, None, True)


def _push(plan: Plan, graph_var: Optional[str], ordered: bool) -> Plan:
    """``ordered``: the column order of ``plan``'s rows is observable
    (``SELECT *`` lists the columns in the order they were bound); an
    explicit projection above makes it unobservable."""
    if isinstance(plan, (Project, Aggregate)) and plan.projections is not None:
        ordered = False
    if isinstance(plan, Graph):
        inner_var = plan.graph if isinstance(plan.graph, str) else None
        return replace(plan, input=_push(plan.input, inner_var, ordered))
    if isinstance(plan, Filter) and plan.origin == "group_end":
        inner = _push(plan.input, graph_var, ordered)
        return _place(plan.expression, inner, graph_var, ordered)
    return _map_children(plan, lambda child: _push(child, graph_var, ordered))


def _first_flushes(plan: Plan, variable: str, ordered: bool) -> List[BGP]:
    """The flushes a sargable filter on ``variable`` seeds: the group's
    first executed flushes (where the evaluator seeds it) — the deepest
    flush-starting BGP on the spine, or the first flush of every branch
    of the path union a group starts with
    (:func:`repro.sparql.algebra.lower_path`).

    A group that starts with ``GRAPH ?g`` hands the seed to the
    subgroup's first flushes when their own patterns bind ``variable``
    (``?g`` aside).  The evaluator filters right after the GRAPH join
    then, and a filter on a variable the flush binds is the same as
    seeding it: every later step keeps the flush row's value.  Not when
    the column order is observable (``ordered``): a seed is the first
    column, where the evaluator binds the subgroup's variables in its
    own join order."""
    found: List[BGP] = []
    node: Optional[Plan] = plan
    while node is not None:
        if isinstance(node, Graph):
            break  # a GRAPH subgroup is a different filter scope
        if isinstance(node, BGP) and node.fresh:
            found = [node]
        elif isinstance(node, Union):
            found = [
                f for branch in node.branches
                for f in _first_flushes(branch, variable, ordered)
            ]
        elif not ordered and _starts_with_graph(node, variable):
            inner = _first_flushes(node.right.input, variable, ordered)
            if inner and all(
                any(variable in pattern_variables(p) for p in flush.patterns)
                for flush in inner
            ):
                found = inner
        node = spine_child(node)
    return found


def _starts_with_graph(node: Plan, variable: str) -> bool:
    """``Join(Unit, Graph(?g, ...))`` with ``?g`` not ``variable``: a
    group whose first element is ``GRAPH ?g``."""
    return (
        isinstance(node, Join)
        and isinstance(node.left, Unit)
        and isinstance(node.right, Graph)
        and isinstance(node.right.graph, str)
        and node.right.graph != variable
    )


def _replace(plan: Plan, new: Dict[int, Plan]) -> Plan:
    """``plan`` with each node whose ``id`` is a key of ``new`` replaced."""
    if id(plan) in new:
        return new[id(plan)]
    return _map_children(plan, lambda child: _replace(child, new))


def _place(
    expression: Expression,
    node: Plan,
    graph_var: Optional[str],
    ordered: bool,
) -> Plan:
    variables = expression_variables(expression)
    if contains_exists(expression):
        # EXISTS evaluates a correlated subgroup; keep it at the
        # group's end where it runs exactly once per surviving row.
        return Filter(node, expression, origin="group_end")
    match = constant_equality(expression)
    if match is not None:
        variable, term = match
        flushes = {
            id(flush): flush
            for flush in _first_flushes(node, variable, ordered)
        }
        if flushes and not any(
            variable in schema_vars(spine_child(flush), graph_var)
            or variable in {v for v, _ in flush.seeds}
            for flush in flushes.values()
        ):
            return _replace(node, {
                key: replace(flush, seeds=flush.seeds + ((variable, term),))
                for key, flush in flushes.items()
            })
    if variables <= certain_vars(node, graph_var):
        return _sink(expression, variables, node, graph_var)
    return Filter(node, expression, origin="group_end")


def _sink(
    expression: Expression,
    variables: Set[str],
    node: Plan,
    graph_var: Optional[str],
) -> Plan:
    """Place the filter at/below ``node``; caller guarantees the
    variables are certain at ``node``'s output."""
    if isinstance(node, _SINKABLE):
        child = spine_child(node)
        if child is not None and variables <= certain_vars(child, graph_var):
            return with_spine_child(
                node, _sink(expression, variables, child, graph_var)
            )
        if isinstance(node, BGP):
            # Mid-flush placement: the physical compiler applies the
            # filter right after the earliest step binding its
            # variables, like the evaluator's per-step eligibility
            # check.
            return replace(node, filters=node.filters + (expression,))
    return Filter(node, expression, origin="pushed")


# ----------------------------------------------------------------------
# Unit joins
# ----------------------------------------------------------------------


def drop_unit_joins(plan: Plan) -> Plan:
    """``Join(Unit, X)`` and ``Join(X, Unit)`` become ``X``: ``Unit`` is
    the join identity.  Runs after :func:`push_filters`, which reads a
    ``Join(Unit, ...)`` as the start of a nested group (a different
    filter scope)."""
    plan = _map_children(plan, drop_unit_joins)
    if isinstance(plan, Join):
        if isinstance(plan.left, Unit):
            return plan.right
        if isinstance(plan.right, Unit):
            return plan.left
    return plan


# ----------------------------------------------------------------------
# Dead-BIND pruning
# ----------------------------------------------------------------------


def _expression_uses(expression: Expression) -> Set[str]:
    """Variables an expression reads, including EXISTS correlation."""
    uses = set(expression_variables(expression))

    def walk(node: Expression) -> None:
        if isinstance(node, ExistsExpr):
            uses.update(group_variables(node.group))
        for child in expression_children(node):
            walk(child)

    walk(expression)
    return uses


def _collect_uses(plan: Plan, uses: Set[str], stars: List[bool]) -> None:
    if isinstance(plan, BGP):
        for pattern in plan.patterns:
            for part in (pattern.subject, pattern.predicate, pattern.object):
                if isinstance(part, str):
                    uses.add(part)
        uses.update(v for v, _ in plan.seeds)
        for expr in plan.filters:
            uses |= _expression_uses(expr)
    elif isinstance(plan, Filter):
        uses |= _expression_uses(plan.expression)
    elif isinstance(plan, Extend):
        uses |= _expression_uses(plan.expression)
    elif isinstance(plan, Graph):
        if isinstance(plan.graph, str):
            uses.add(plan.graph)
    elif isinstance(plan, OrderBy):
        for condition in plan.conditions:
            uses |= _expression_uses(condition.expression)
    elif isinstance(plan, Aggregate):
        if plan.projections is None:
            stars.append(True)
        else:
            for projection in plan.projections:
                uses.add(projection.var)
                if projection.expression is not None:
                    uses |= _expression_uses(projection.expression)
        for expr in plan.group_by:
            uses |= _expression_uses(expr)
        uses.update(a for a in plan.group_by_aliases if a is not None)
        for expr in plan.having:
            uses |= _expression_uses(expr)
        for condition in plan.order_by:
            uses |= _expression_uses(condition.expression)
    elif isinstance(plan, Project):
        if plan.projections is None:
            stars.append(True)
        else:
            uses.update(p.var for p in plan.projections)
    elif isinstance(plan, (Join, LeftJoin, Minus)):
        # Shared variables are join keys on both sides.
        uses |= schema_vars(plan.left) & schema_vars(plan.right)

    for child in children(plan):
        _collect_uses(child, uses, stars)


def prune_extends(plan: Plan, protected: FrozenSet[str] = frozenset()) -> Plan:
    """Drop Extend (BIND) nodes whose column nothing reads."""
    while True:
        uses: Set[str] = set(protected)
        stars: List[bool] = []
        _collect_uses(plan, uses, stars)
        if stars:
            return plan  # SELECT * exposes everything: prune nothing
        bound_counts: dict = {}
        _count_bindings(plan, bound_counts)
        dead = _find_dead_extends(plan, uses, bound_counts)
        if not dead:
            return plan
        plan = _drop_extends(plan, dead)


def _count_bindings(plan: Plan, counts: dict) -> None:
    if isinstance(plan, Extend):
        counts[plan.var] = counts.get(plan.var, 0) + 1

    for child in children(plan):
        _count_bindings(child, counts)


def _find_dead_extends(plan: Plan, uses: Set[str], counts: dict) -> Set[int]:
    dead: Set[int] = set()

    def walk(node: Plan) -> None:
        if isinstance(node, Extend) and node.kind == "bind":
            # Keep any Extend that participates in a rebind: the
            # compile-time rebind error must still surface exactly as
            # the reference evaluator raises it.
            if (
                node.var not in uses
                and counts.get(node.var, 0) == 1
                and node.var not in schema_vars(spine_child(node))
            ):
                dead.add(id(node))

        for child in children(node):
            walk(child)

    walk(plan)
    return dead


def _drop_extends(plan: Plan, dead: Set[int]) -> Plan:
    if isinstance(plan, Extend) and id(plan) in dead:
        return _drop_extends(plan.input, dead)
    return _map_children(plan, lambda child: _drop_extends(child, dead))


# ----------------------------------------------------------------------
# Slice placement
# ----------------------------------------------------------------------


def place_slice(plan: Plan) -> Plan:
    plan = _map_children(plan, place_slice)
    if not isinstance(plan, Slice):
        return plan
    inner = plan.input
    # Push below row-preserving operators (never Distinct/OrderBy).
    while isinstance(inner, (Project, Extend)):
        moved = with_spine_child(inner, replace(plan, input=spine_child(inner)))
        return _map_children(moved, place_slice)
    if isinstance(inner, OrderBy) and plan.limit is not None and inner.top is None:
        # Top-k fusion: the sort only has to retain offset+limit rows.
        return replace(
            plan, input=replace(inner, top=plan.offset + plan.limit)
        )
    return plan


# ----------------------------------------------------------------------
# Hop merging
# ----------------------------------------------------------------------


def _hops(plan: Plan) -> Set[str]:
    if not isinstance(plan, BGP):
        return set()
    return {v for p in plan.patterns for v in pattern_variables(p) if is_hop(v)}


def merge_hops(plan: Plan) -> Plan:
    total: Counter = Counter()

    def tally(node: Plan) -> None:
        total.update(_hops(node))
        for child in children(node):
            tally(child)

    def mark(node: Plan, above: Counter) -> Plan:
        below: Counter = Counter()
        node = _map_children(node, lambda child: mark(child, below))
        own = _hops(node)
        below.update(own)
        above.update(below)
        done = frozenset(v for v in own if below[v] == total[v])
        return replace(node, drop=done) if done else node

    tally(plan)
    return mark(plan, Counter()) if total else plan


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def default_rules(
    filter_pushdown: bool = True, protected: FrozenSet[str] = frozenset()
) -> Tuple[Rule, ...]:
    rules: List[Rule] = [fold_constants]
    if filter_pushdown:
        rules.append(push_filters)
    rules.append(drop_unit_joins)
    rules.append(lambda p: prune_extends(p, protected))
    rules.append(place_slice)
    rules.append(merge_hops)
    return tuple(rules)


def optimize(
    plan: Plan,
    filter_pushdown: bool = True,
    protected: FrozenSet[str] = frozenset(),
) -> Plan:
    """Apply the default rule pipeline.

    ``protected`` names variables with external uses the plan cannot
    see (CONSTRUCT template variables, DESCRIBE targets).
    """
    for rule in default_rules(filter_pushdown, protected):
        plan = rule(plan)
    return plan
