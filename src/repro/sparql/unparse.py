"""AST -> SPARQL text (unparser).

Renders any parsed query back to executable SPARQL.  Used for query
logging, debugging, and the parser round-trip property tests
(``parse(unparse(parse(q)))`` equals ``parse(q)``).
"""

from __future__ import annotations

from typing import List

from repro.rdf.terms import Term
from repro.sparql.ast import (
    AggregateExpr,
    AndExpr,
    ArithmeticExpr,
    AskQuery,
    BindPattern,
    CompareExpr,
    ConstructQuery,
    DescribeQuery,
    ExistsExpr,
    Expression,
    FilterPattern,
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
    Path,
    PathAlternative,
    PathInverse,
    PathLink,
    PathNegated,
    PathRepeat,
    PathSequence,
    SelectQuery,
    SubSelectPattern,
    TermExpr,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
    VarExpr,
    bound,
)


def unparse(query) -> str:
    """Render a query AST as SPARQL text."""
    if isinstance(query, SelectQuery):
        return _select(query)
    if isinstance(query, AskQuery):
        return f"ASK {_group(query.where)}"
    if isinstance(query, ConstructQuery):
        template = " . ".join(_triple(t) for t in query.template)
        return f"CONSTRUCT {{ {template} }} WHERE {_group(query.where)}"
    if isinstance(query, DescribeQuery):
        targets = " ".join(_term_or_var(t) for t in query.targets)
        text = f"DESCRIBE {targets}"
        if query.where is not None:
            text += f" WHERE {_group(query.where)}"
        return text
    raise TypeError(f"cannot unparse {type(query).__name__}")


def _select(query: SelectQuery) -> str:
    parts: List[str] = ["SELECT"]
    if query.distinct:
        parts.append("DISTINCT")
    elif query.reduced:
        parts.append("REDUCED")
    if query.is_star():
        parts.append("*")
    else:
        for projection in query.projections:
            if projection.expression is None:
                parts.append(f"?{projection.var}")
            else:
                parts.append(
                    f"({_expr(projection.expression)} AS ?{projection.var})"
                )
    parts.append(f"WHERE {_group(query.where)}")
    if query.group_by:
        conditions = []
        for expression, alias in zip(query.group_by, query.group_by_aliases):
            if alias is not None:
                conditions.append(f"({_expr(expression)} AS ?{alias})")
            elif isinstance(expression, VarExpr):
                conditions.append(f"?{expression.name}")
            else:
                conditions.append(f"({_expr(expression)})")
        parts.append("GROUP BY " + " ".join(conditions))
    for having in query.having:
        parts.append(f"HAVING ({_expr(having)})")
    if query.order_by:
        conditions = []
        for condition in query.order_by:
            rendered = f"({_expr(condition.expression)})"
            if condition.descending:
                conditions.append(f"DESC{rendered}")
            else:
                conditions.append(f"ASC{rendered}")
        parts.append("ORDER BY " + " ".join(conditions))
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    if query.offset:
        parts.append(f"OFFSET {query.offset}")
    return " ".join(parts)


def _group(group: GroupPattern) -> str:
    # A group that IS a subquery renders as the subquery's braces alone
    # (the parser produces this shape for `{ SELECT ... }`).
    if len(group.elements) == 1 and isinstance(
        group.elements[0], SubSelectPattern
    ):
        return "{ " + _select(group.elements[0].query) + " }"
    elements: List[str] = []
    for element in group.elements:
        if isinstance(element, TriplePattern):
            elements.append(_triple(element) + " .")
        elif isinstance(element, FilterPattern):
            elements.append(f"FILTER ({_expr(element.expression)})")
        elif isinstance(element, OptionalPattern):
            elements.append(f"OPTIONAL {_group(element.group)}")
        elif isinstance(element, MinusPattern):
            elements.append(f"MINUS {_group(element.group)}")
        elif isinstance(element, GraphGraphPattern):
            elements.append(
                f"GRAPH {_term_or_var(element.graph)} {_group(element.group)}"
            )
        elif isinstance(element, UnionPattern):
            elements.append(
                " UNION ".join(_group(branch) for branch in element.branches)
            )
        elif isinstance(element, BindPattern):
            elements.append(
                f"BIND({_expr(element.expression)} AS ?{element.var})"
            )
        elif isinstance(element, ValuesPattern):
            variables = " ".join(f"?{v}" for v in element.variables)
            rows = " ".join(
                "(" + " ".join(
                    "UNDEF" if term is None else term.n3() for term in row
                ) + ")"
                for row in element.rows
            )
            elements.append(f"VALUES ({variables}) {{ {rows} }}")
        elif isinstance(element, SubSelectPattern):
            elements.append("{ " + _select(element.query) + " }")
        elif isinstance(element, GroupPattern):
            elements.append(_group(element))
        else:
            raise TypeError(f"cannot unparse {type(element).__name__}")
    return "{ " + " ".join(elements) + " }"


def _triple(pattern: TriplePattern, params=()) -> str:
    predicate = pattern.predicate
    if pattern.predicate_is_path():
        predicate_text = _path(predicate)
    else:
        predicate_text = _term_or_var(predicate)
    return (
        f"{_term_or_var(pattern.subject, params)} {predicate_text} "
        f"{_term_or_var(pattern.object, params)}"
    )


def _term_or_var(part, params=()) -> str:
    if isinstance(part, str):
        if part.startswith("_:"):
            return part
        return f"?{part}"
    assert isinstance(part, (Term, Param))
    return _term(part, params)


def _term(constant, params=()) -> str:
    """A constant's N3; a lifted slot's value from ``params`` if given."""
    return (bound(constant, params) if params else constant).n3()


def _path(path: Path) -> str:
    if isinstance(path, PathLink):
        return path.iri.n3()
    if isinstance(path, PathInverse):
        return f"^{_path_primary(path.inner)}"
    if isinstance(path, PathSequence):
        return "/".join(_path_primary(step) for step in path.steps)
    if isinstance(path, PathAlternative):
        return "|".join(_path_primary(option) for option in path.options)
    if isinstance(path, PathRepeat):
        if not path.unbounded:
            modifier = "?"
        elif path.minimum == 0:
            modifier = "*"
        else:
            modifier = "+"
        return f"{_path_primary(path.inner)}{modifier}"
    if isinstance(path, PathNegated):
        members = "|".join(iri.n3() for iri in path.iris)
        return f"!({members})"
    raise TypeError(f"cannot unparse path {type(path).__name__}")


def _path_primary(path: Path) -> str:
    text = _path(path)
    if isinstance(path, (PathSequence, PathAlternative)):
        return f"({text})"
    return text


def _expr(expression: Expression, params=()) -> str:
    # ``params``: a lifted slot is only ever a side of a top-level
    # ``?v = <constant>`` comparison (repro.sparql.plancache.lift).
    if isinstance(expression, VarExpr):
        return f"?{expression.name}"
    if isinstance(expression, TermExpr):
        return _term(expression.term, params)
    if isinstance(expression, OrExpr):
        return " || ".join(f"({_expr(e)})" for e in expression.operands)
    if isinstance(expression, AndExpr):
        return " && ".join(f"({_expr(e)})" for e in expression.operands)
    if isinstance(expression, NotExpr):
        return f"!({_expr(expression.operand)})"
    if isinstance(expression, NegExpr):
        return f"-({_expr(expression.operand)})"
    if isinstance(expression, CompareExpr):
        return (
            f"({_expr(expression.left, params)}) {expression.op} "
            f"({_expr(expression.right, params)})"
        )
    if isinstance(expression, ArithmeticExpr):
        return (
            f"({_expr(expression.left)}) {expression.op} "
            f"({_expr(expression.right)})"
        )
    if isinstance(expression, InExpr):
        options = ", ".join(_expr(option) for option in expression.options)
        keyword = "NOT IN" if expression.negated else "IN"
        return f"({_expr(expression.value)}) {keyword} ({options})"
    if isinstance(expression, FunctionExpr):
        args = ", ".join(_expr(argument) for argument in expression.args)
        return f"{expression.name}({args})"
    if isinstance(expression, ExistsExpr):
        keyword = "NOT EXISTS" if expression.negated else "EXISTS"
        return f"{keyword} {_group(expression.group)}"
    if isinstance(expression, AggregateExpr):
        distinct = "DISTINCT " if expression.distinct else ""
        if expression.argument is None:
            return f"{expression.name}({distinct}*)"
        inner = _expr(expression.argument)
        if expression.name == "GROUP_CONCAT" and expression.separator != " ":
            separator = expression.separator.replace('"', '\\"')
            return (
                f'GROUP_CONCAT({distinct}{inner}; SEPARATOR="{separator}")'
            )
        return f"{expression.name}({distinct}{inner})"
    raise TypeError(f"cannot unparse {type(expression).__name__}")


# Public aliases: EXPLAIN ANALYZE labels operators with query fragments.
render_triple = _triple
render_expr = _expr
render_term = _term
