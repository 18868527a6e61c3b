"""Shared SPARQL expression and aggregate evaluation.

The layered pipeline (:mod:`repro.sparql.physical`) and the reference
evaluator the differential tests compare it against
(:mod:`repro.testing.reference`) evaluate the same expression AST.
Keeping one implementation here guarantees the two cannot drift:
FILTER/BIND/HAVING/ORDER BY semantics, the error-as-unbound rules, and
the aggregate machinery are defined exactly once.

Variables resolve through a ``get(name) -> Optional[Term]`` callback so
the evaluator stays representation-agnostic; EXISTS — the one construct
that needs to evaluate a whole graph pattern — is injected as a
callback by whichever engine hosts the evaluator.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import IRI, Literal, Term
from repro.sparql import functions as F
from repro.sparql.ast import (
    AggregateExpr,
    AndExpr,
    ArithmeticExpr,
    CompareExpr,
    ExistsExpr,
    Expression,
    FunctionExpr,
    GraphGraphPattern,
    GroupPattern,
    InExpr,
    MinusPattern,
    NegExpr,
    NotExpr,
    OptionalPattern,
    OrExpr,
    Param,
    Projection,
    TermExpr,
    TriplePattern,
    UnionPattern,
    VarExpr,
)
from repro.sparql.errors import EvaluationError, ExpressionError


class ExpressionEvaluator:
    """Evaluates expressions; ``get(name)`` resolves variables to Terms.

    ``exists`` is a callback ``(ExistsExpr, get) -> Term`` supplied by
    the hosting engine (EXISTS evaluates a correlated graph pattern,
    which only the engine knows how to run).  When omitted, EXISTS
    raises.
    """

    __slots__ = ("_exists",)

    def __init__(self, exists=None):
        self._exists = exists

    # ------------------------------------------------------------------
    # Scalar evaluation
    # ------------------------------------------------------------------

    def evaluate(self, expression: Expression, get) -> Term:
        if isinstance(expression, VarExpr):
            value = get(expression.name)
            if value is None:
                raise ExpressionError(f"?{expression.name} is unbound")
            return value
        if isinstance(expression, TermExpr):
            return expression.term
        if isinstance(expression, OrExpr):
            error: Optional[ExpressionError] = None
            for operand in expression.operands:
                try:
                    if F.ebv(self.evaluate(operand, get)):
                        return F.TRUE
                except ExpressionError as exc:
                    error = exc
            if error is not None:
                raise error
            return F.FALSE
        if isinstance(expression, AndExpr):
            error = None
            for operand in expression.operands:
                try:
                    if not F.ebv(self.evaluate(operand, get)):
                        return F.FALSE
                except ExpressionError as exc:
                    error = exc
            if error is not None:
                raise error
            return F.TRUE
        if isinstance(expression, NotExpr):
            return F.boolean(not F.ebv(self.evaluate(expression.operand, get)))
        if isinstance(expression, CompareExpr):
            left = self.evaluate_allow_unbound(expression.left, get)
            right = self.evaluate_allow_unbound(expression.right, get)
            return F.boolean(F.compare(expression.op, left, right))
        if isinstance(expression, ArithmeticExpr):
            return F.arithmetic(
                expression.op,
                self.evaluate(expression.left, get),
                self.evaluate(expression.right, get),
            )
        if isinstance(expression, NegExpr):
            return F.negate(self.evaluate(expression.operand, get))
        if isinstance(expression, InExpr):
            value = self.evaluate(expression.value, get)
            found = False
            for option in expression.options:
                try:
                    if F.compare("=", value, self.evaluate(option, get)):
                        found = True
                        break
                except ExpressionError:
                    continue
            return F.boolean(found != expression.negated)
        if isinstance(expression, FunctionExpr):
            return self._evaluate_function(expression, get)
        if isinstance(expression, ExistsExpr):
            if self._exists is None:
                raise ExpressionError("EXISTS unsupported in this context")
            return self._exists(expression, get)
        if isinstance(expression, AggregateExpr):
            raise ExpressionError("aggregate used outside aggregation context")
        raise EvaluationError(f"unsupported expression {expression!r}")

    def evaluate_allow_unbound(
        self, expression: Expression, get
    ) -> Optional[Term]:
        if isinstance(expression, VarExpr):
            return get(expression.name)
        return self.evaluate(expression, get)

    def _evaluate_function(self, expression: FunctionExpr, get) -> Term:
        name = expression.name
        if name == "IF":
            if len(expression.args) != 3:
                raise ExpressionError("IF needs three arguments")
            condition = F.ebv(self.evaluate(expression.args[0], get))
            chosen = expression.args[1] if condition else expression.args[2]
            return self.evaluate(chosen, get)
        if name == "COALESCE":
            for argument in expression.args:
                try:
                    return self.evaluate(argument, get)
                except ExpressionError:
                    continue
            raise ExpressionError("COALESCE: no argument evaluated")
        if name == "BOUND":
            if len(expression.args) != 1 or not isinstance(
                expression.args[0], VarExpr
            ):
                raise ExpressionError("BOUND needs a single variable")
            return F.boolean(get(expression.args[0].name) is not None)
        args = [
            self.evaluate_allow_unbound(argument, get)
            for argument in expression.args
        ]
        return F.call_builtin(name, args)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def compute_aggregates(
        self,
        projections: Sequence[Projection],
        having: Sequence[Expression],
        order_by,
        members: List[Tuple[Tuple, int]],
        getter,
    ) -> Dict[AggregateExpr, Optional[Term]]:
        """Evaluate every aggregate a query's clauses mention, once per group."""
        needed: List[AggregateExpr] = []

        def collect(expression: Optional[Expression]) -> None:
            if expression is None:
                return
            if isinstance(expression, AggregateExpr):
                if expression not in needed:
                    needed.append(expression)
                return
            for child in expression_children(expression):
                collect(child)

        for projection in projections:
            collect(projection.expression)
        for condition in having:
            collect(condition)
        for condition in order_by:
            collect(condition.expression)
        computed: Dict[AggregateExpr, Optional[Term]] = {}
        for aggregate in needed:
            computed[aggregate] = self.compute_one_aggregate(
                aggregate, members, getter
            )
        return computed

    def compute_one_aggregate(
        self,
        aggregate: AggregateExpr,
        members: List[Tuple[Tuple, int]],
        getter,
    ) -> Optional[Term]:
        name = aggregate.name
        if name == "COUNT" and aggregate.argument is None:
            if aggregate.distinct:
                return Literal.from_python(len({row for row, _ in members}))
            return Literal.from_python(sum(mult for _, mult in members))
        values: List[Term] = []
        seen: Set[Term] = set()
        for row, mult in members:
            get = getter(row)
            try:
                value = self.evaluate(aggregate.argument, get)
            except ExpressionError:
                continue
            if aggregate.distinct:
                if value in seen:
                    continue
                seen.add(value)
                values.append(value)
            else:
                values.extend([value] * mult)
        if name == "COUNT":
            return Literal.from_python(len(values))
        if not values:
            if name in ("SUM",):
                return Literal.from_python(0)
            raise ExpressionError(f"{name} over empty group")
        if name == "SUM":
            total = sum(as_number(v) for v in values)
            return Literal.from_python(total)
        if name == "AVG":
            total = sum(as_number(v) for v in values)
            return Literal.from_python(total / len(values))
        if name == "MIN":
            return min(values, key=F.order_key)
        if name == "MAX":
            return max(values, key=F.order_key)
        if name == "SAMPLE":
            return values[0]
        if name == "GROUP_CONCAT":
            parts = []
            for value in values:
                if not isinstance(value, Literal):
                    raise ExpressionError("GROUP_CONCAT needs literals")
                parts.append(value.lexical)
            return Literal(aggregate.separator.join(parts))
        raise ExpressionError(f"unknown aggregate {name}")

    def evaluate_with_aggregates(
        self,
        expression: Expression,
        get,
        aggregates: Dict[AggregateExpr, Optional[Term]],
    ) -> Term:
        if isinstance(expression, AggregateExpr):
            value = aggregates.get(expression)
            if value is None:
                raise ExpressionError("aggregate evaluation failed")
            return value
        if isinstance(expression, (OrExpr, AndExpr, NotExpr, CompareExpr,
                                   ArithmeticExpr, NegExpr, FunctionExpr,
                                   InExpr)):
            rewritten = substitute_aggregates(expression, aggregates)
            return self.evaluate(rewritten, get)
        return self.evaluate(expression, get)


# ----------------------------------------------------------------------
# Variable resolution over ID rows
# ----------------------------------------------------------------------


def row_getter(variables: Sequence[str], term_of):
    """Per-row variable->Term lookup factory over ID tuples.

    ``term_of`` decodes a term ID; IDs that are ``None`` or the default
    graph sentinel ``0`` resolve to "unbound".
    """
    var_index = {v: i for i, v in enumerate(variables)}

    def for_row(row):
        def get(name: str) -> Optional[Term]:
            index = var_index.get(name)
            if index is None:
                return None
            value = row[index]
            if value is None or value == 0:
                return None
            return term_of(value)

        return get

    return for_row


# ----------------------------------------------------------------------
# Static expression analysis
# ----------------------------------------------------------------------


def expression_children(expression: Expression):
    if isinstance(expression, (OrExpr, AndExpr)):
        return expression.operands
    if isinstance(expression, (NotExpr, NegExpr)):
        return (expression.operand,)
    if isinstance(expression, (CompareExpr, ArithmeticExpr)):
        return (expression.left, expression.right)
    if isinstance(expression, FunctionExpr):
        return expression.args
    if isinstance(expression, InExpr):
        return (expression.value,) + expression.options
    if isinstance(expression, AggregateExpr):
        return () if expression.argument is None else (expression.argument,)
    return ()


def map_children(expression: Expression, fn) -> Expression:
    """``expression`` rebuilt with ``fn`` applied to each of its
    :func:`expression_children`."""
    if isinstance(expression, (OrExpr, AndExpr)):
        return replace(
            expression, operands=tuple(map(fn, expression.operands))
        )
    if isinstance(expression, (NotExpr, NegExpr)):
        return replace(expression, operand=fn(expression.operand))
    if isinstance(expression, (CompareExpr, ArithmeticExpr)):
        return replace(
            expression, left=fn(expression.left), right=fn(expression.right)
        )
    if isinstance(expression, FunctionExpr):
        return replace(expression, args=tuple(map(fn, expression.args)))
    if isinstance(expression, InExpr):
        return replace(
            expression,
            value=fn(expression.value),
            options=tuple(map(fn, expression.options)),
        )
    if isinstance(expression, AggregateExpr):
        if expression.argument is None:
            return expression
        return replace(expression, argument=fn(expression.argument))
    return expression


def contains_exists(expression: Expression) -> bool:
    if isinstance(expression, ExistsExpr):
        return True
    return any(
        contains_exists(child) for child in expression_children(expression)
    )


def constant_equality(expression: Expression):
    """Match ``?v = <term>`` / ``<term> = ?v`` with an exact-term constant.

    Returns ``(variable, term)`` or ``None``.  Restricted to IRIs and
    plain string literals, whose SPARQL ``=`` coincides with term
    identity under our canonicalizing values table.  A lifted constant
    comes back as its :class:`Param` (the plan cache only lifts
    constants that qualify).
    """
    if not isinstance(expression, CompareExpr) or expression.op != "=":
        return None
    left, right = expression.left, expression.right
    if isinstance(left, VarExpr) and isinstance(right, TermExpr):
        variable, term = left.name, right.term
    elif isinstance(right, VarExpr) and isinstance(left, TermExpr):
        variable, term = right.name, left.term
    else:
        return None
    value = term.term if isinstance(term, Param) else term
    if isinstance(value, IRI):
        return variable, term
    if isinstance(value, Literal) and value.is_plain_string():
        return variable, term
    return None


def substitute_aggregates(
    expression: Expression, aggregates: Dict[AggregateExpr, Optional[Term]]
) -> Expression:
    if isinstance(expression, AggregateExpr):
        value = aggregates.get(expression)
        if value is None:
            raise ExpressionError("aggregate evaluation failed")
        return TermExpr(value)
    return map_children(
        expression, lambda child: substitute_aggregates(child, aggregates)
    )


def as_number(term: Term) -> float:
    if isinstance(term, Literal) and term.is_numeric():
        return term.to_python()
    raise ExpressionError(f"not a number: {term!r}")


class Reversed:
    """Wrapper inverting sort order for DESC keys."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return isinstance(other, Reversed) and self.key == other.key


# ----------------------------------------------------------------------
# Pattern-level helpers shared with the reference evaluator
# ----------------------------------------------------------------------


def internal_checks(slots) -> List[Tuple[int, int]]:
    """Equality checks for a variable repeated within one pattern."""
    first: Dict[str, int] = {}
    checks: List[Tuple[int, int]] = []
    for position, slot in enumerate(slots):
        if isinstance(slot, str):
            if slot in first:
                checks.append((first[slot], position))
            else:
                first[slot] = position
    return checks


def passes_checks(quad, checks: List[Tuple[int, int]]) -> bool:
    return all(quad[a] == quad[b] for a, b in checks)


def group_variables(group: GroupPattern) -> Set[str]:
    """Variables a group pattern can bind (used to seed EXISTS)."""
    found: Set[str] = set()
    for element in group.elements:
        if isinstance(element, TriplePattern):
            for part in (element.subject, element.predicate, element.object):
                if isinstance(part, str):
                    found.add(part)
        elif isinstance(element, GroupPattern):
            found |= group_variables(element)
        elif isinstance(element, (OptionalPattern, MinusPattern)):
            found |= group_variables(element.group)
        elif isinstance(element, GraphGraphPattern):
            found |= group_variables(element.group)
            if isinstance(element.graph, str):
                found.add(element.graph)
        elif isinstance(element, UnionPattern):
            for branch in element.branches:
                found |= group_variables(branch)
    return found
