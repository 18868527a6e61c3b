"""SPARQL abstract syntax tree.

Nodes are small frozen dataclasses.  The pipeline lowers this AST into
the logical algebra (:mod:`repro.sparql.algebra`); the reference
evaluator (:mod:`repro.testing.reference`) interprets it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.rdf.terms import Term

# ----------------------------------------------------------------------
# Parameter slots
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A constant lifted out of a query into slot ``index`` (see
    :func:`repro.sparql.plancache.lift`).

    ``term`` is the value the slot was lifted from.  It takes no part
    in equality or hashing, so queries that differ only in lifted
    constants are equal — the plan cache's key — while the compiler
    can still read a concrete value for its estimates and renderings.
    """

    index: int
    term: Term = field(compare=False)

    def n3(self) -> str:
        return self.term.n3()


def bound(constant, params: Sequence[Term]):
    """The term a request binds to ``constant``: a lifted
    :class:`Param`'s value from ``params``, any other constant itself."""
    return params[constant.index] if type(constant) is Param else constant


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VarExpr:
    name: str


@dataclass(frozen=True)
class TermExpr:
    term: Term


@dataclass(frozen=True)
class OrExpr:
    operands: Tuple["Expression", ...]


@dataclass(frozen=True)
class AndExpr:
    operands: Tuple["Expression", ...]


@dataclass(frozen=True)
class NotExpr:
    operand: "Expression"


@dataclass(frozen=True)
class CompareExpr:
    op: str  # = != < > <= >=
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class ArithmeticExpr:
    op: str  # + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class NegExpr:
    operand: "Expression"


@dataclass(frozen=True)
class FunctionExpr:
    name: str  # upper-case builtin name
    args: Tuple["Expression", ...]


@dataclass(frozen=True)
class InExpr:
    value: "Expression"
    options: Tuple["Expression", ...]
    negated: bool = False


@dataclass(frozen=True)
class ExistsExpr:
    group: "GroupPattern"
    negated: bool = False


@dataclass(frozen=True)
class AggregateExpr:
    name: str  # COUNT SUM AVG MIN MAX SAMPLE GROUP_CONCAT
    argument: Optional["Expression"]  # None for COUNT(*)
    distinct: bool = False
    separator: str = " "  # GROUP_CONCAT only


Expression = Union[
    VarExpr, TermExpr, OrExpr, AndExpr, NotExpr, CompareExpr,
    ArithmeticExpr, NegExpr, FunctionExpr, InExpr, ExistsExpr, AggregateExpr,
]

# ----------------------------------------------------------------------
# Property paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PathLink:
    """A plain predicate IRI used as a path of length one."""

    iri: Term


@dataclass(frozen=True)
class PathInverse:
    inner: "Path"


@dataclass(frozen=True)
class PathSequence:
    steps: Tuple["Path", ...]


@dataclass(frozen=True)
class PathAlternative:
    options: Tuple["Path", ...]


@dataclass(frozen=True)
class PathRepeat:
    inner: "Path"
    minimum: int  # 0 for * and ?, 1 for +
    unbounded: bool  # False only for ? (max 1)


@dataclass(frozen=True)
class PathNegated:
    """Negated property set ``!(iri|...)`` — forward members only."""

    iris: Tuple[Term, ...]


Path = Union[
    PathLink, PathInverse, PathSequence, PathAlternative, PathRepeat,
    PathNegated,
]

# ----------------------------------------------------------------------
# Graph patterns
# ----------------------------------------------------------------------

#: A subject/object position: a term (or a lifted :class:`Param`) or
#: a variable name.
TermOrVar = Union[Term, Param, str]


@dataclass(frozen=True)
class TriplePattern:
    """One triple pattern; the predicate may be a var, a term or a path."""

    subject: TermOrVar
    predicate: Union[TermOrVar, Path]
    object: TermOrVar

    def predicate_is_path(self) -> bool:
        return isinstance(
            self.predicate,
            (PathLink, PathInverse, PathSequence, PathAlternative,
             PathRepeat, PathNegated),
        )


@dataclass(frozen=True)
class FilterPattern:
    expression: Expression


@dataclass(frozen=True)
class BindPattern:
    expression: Expression
    var: str


@dataclass(frozen=True)
class ValuesPattern:
    variables: Tuple[str, ...]
    rows: Tuple[Tuple[Optional[Term], ...], ...]  # None encodes UNDEF


@dataclass(frozen=True)
class GraphGraphPattern:
    """GRAPH <iri> { ... } or GRAPH ?g { ... }."""

    graph: TermOrVar
    group: "GroupPattern"


@dataclass(frozen=True)
class OptionalPattern:
    group: "GroupPattern"


@dataclass(frozen=True)
class UnionPattern:
    branches: Tuple["GroupPattern", ...]


@dataclass(frozen=True)
class MinusPattern:
    group: "GroupPattern"


@dataclass(frozen=True)
class SubSelectPattern:
    query: "SelectQuery"


GroupElement = Union[
    TriplePattern, FilterPattern, BindPattern, ValuesPattern,
    GraphGraphPattern, OptionalPattern, UnionPattern, MinusPattern,
    "GroupPattern", SubSelectPattern,
]


@dataclass(frozen=True)
class GroupPattern:
    elements: Tuple[GroupElement, ...]


# ----------------------------------------------------------------------
# Query forms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """One SELECT item: a bare variable or (expression AS ?var)."""

    var: str
    expression: Optional[Expression] = None  # None: project the variable


@dataclass(frozen=True)
class OrderCondition:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery:
    projections: Tuple[Projection, ...]  # empty tuple means SELECT *
    where: GroupPattern
    distinct: bool = False
    reduced: bool = False
    group_by: Tuple[Expression, ...] = ()
    group_by_aliases: Tuple[Optional[str], ...] = ()
    having: Tuple[Expression, ...] = ()
    order_by: Tuple[OrderCondition, ...] = ()
    limit: Optional[int] = None
    offset: int = 0

    def is_star(self) -> bool:
        return not self.projections

    def has_aggregates(self) -> bool:
        if self.group_by:
            return True
        return any(
            _contains_aggregate(p.expression)
            for p in self.projections
            if p.expression is not None
        )


@dataclass(frozen=True)
class AskQuery:
    where: GroupPattern


@dataclass(frozen=True)
class ConstructQuery:
    template: Tuple[TriplePattern, ...]
    where: GroupPattern


@dataclass(frozen=True)
class DescribeQuery:
    """DESCRIBE: concise bounded description of the target resources."""

    targets: Tuple[TermOrVar, ...]
    where: Optional[GroupPattern] = None


Query = Union[SelectQuery, AskQuery, ConstructQuery, DescribeQuery]

# ----------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuadPattern:
    """A quad template used in update INSERT/DELETE clauses."""

    subject: TermOrVar
    predicate: TermOrVar
    object: TermOrVar
    graph: Optional[TermOrVar] = None


@dataclass(frozen=True)
class InsertDataUpdate:
    quads: Tuple[QuadPattern, ...]  # ground quads only


@dataclass(frozen=True)
class DeleteDataUpdate:
    quads: Tuple[QuadPattern, ...]


@dataclass(frozen=True)
class ModifyUpdate:
    delete_templates: Tuple[QuadPattern, ...]
    insert_templates: Tuple[QuadPattern, ...]
    where: GroupPattern


@dataclass(frozen=True)
class ClearUpdate:
    graph: Optional[Term]  # None clears everything


Update = Union[InsertDataUpdate, DeleteDataUpdate, ModifyUpdate, ClearUpdate]


@dataclass(frozen=True)
class UpdateRequest:
    operations: Tuple[Update, ...]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _contains_aggregate(expression: Expression) -> bool:
    if isinstance(expression, AggregateExpr):
        return True
    if isinstance(expression, (OrExpr, AndExpr)):
        return any(_contains_aggregate(e) for e in expression.operands)
    if isinstance(expression, (NotExpr, NegExpr)):
        return _contains_aggregate(expression.operand)
    if isinstance(expression, (CompareExpr, ArithmeticExpr)):
        return _contains_aggregate(expression.left) or _contains_aggregate(
            expression.right
        )
    if isinstance(expression, FunctionExpr):
        return any(_contains_aggregate(a) for a in expression.args)
    if isinstance(expression, InExpr):
        return _contains_aggregate(expression.value) or any(
            _contains_aggregate(o) for o in expression.options
        )
    return False


def contains_aggregate(expression: Expression) -> bool:
    """Public wrapper used by the evaluator."""
    return _contains_aggregate(expression)


def pattern_variables(pattern: TriplePattern) -> set:
    """Variable names a triple pattern can bind.

    For property-path patterns only the endpoints are variables — the
    path itself never binds (path link IRIs are constants).
    """
    found = set()
    for part in (pattern.subject, pattern.object):
        if isinstance(part, str):
            found.add(part)
    if isinstance(pattern.predicate, str):
        found.add(pattern.predicate)
    return found


def expression_variables(expression: Expression) -> set:
    """All variable names mentioned by an expression."""
    found: set = set()

    def walk(node: Expression) -> None:
        if isinstance(node, VarExpr):
            found.add(node.name)
        elif isinstance(node, (OrExpr, AndExpr)):
            for child in node.operands:
                walk(child)
        elif isinstance(node, (NotExpr, NegExpr)):
            walk(node.operand)
        elif isinstance(node, (CompareExpr, ArithmeticExpr)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, FunctionExpr):
            for child in node.args:
                walk(child)
        elif isinstance(node, InExpr):
            walk(node.value)
            for child in node.options:
                walk(child)
        elif isinstance(node, AggregateExpr) and node.argument is not None:
            walk(node.argument)

    walk(expression)
    return found
