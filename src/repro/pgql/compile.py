"""Lower PGQL MATCH queries onto the SPARQL algebra, per Table 3.

One compiler per PG-as-RDF encoding (NG / SP / RF) turns a parsed
:class:`~repro.pgql.ast.MatchQuery` into a
:class:`repro.sparql.ast.SelectQuery` — the same AST the SPARQL parser
produces — so the rewrite-rule optimizer, plan cache, EXPLAIN, MVCC
snapshot reads and batched physical operators all apply with zero new
execution code.  The paper's formulation rules map as follows:

===========================  =============================================
PGQL construct               SPARQL formulation (Table 3)
===========================  =============================================
``-[:label]->`` (topology)   rule 1a: ``?s r:label ?o`` (all encodings)
``-[e]->`` / edge props      rule 2, encoding-specific: NG wraps the
                             pattern in ``GRAPH ?e { ... }``; SP binds the
                             per-edge property ``?s ?e ?o`` plus
                             ``?e rdfs:subPropertyOf r:label``; RF uses the
                             ``rdf:subject/predicate/object`` reification
``{key: v}`` / ``n.key``     rule 3: ``?n k:key ?v`` (NG clusters edge KVs
                             into the edge's named graph)
``properties(x)``            rule 3 with unbound key + ``isLiteral(?v)``
``(n:Label)``                sugar for ``{label: 'Label'}``
``id(n) = 7``                ``?n = <vocab.vertex_iri(7)>`` — a sargable
                             equality the optimizer turns into a seed
===========================  =============================================

Compilers are stateless and shareable: per-query state (fresh-variable
counters, hoisted property triples) lives in a :class:`_State` created
inside :meth:`PgqlCompiler.compile`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.vocabulary import PgVocabulary
from repro.pgql import ast as P
from repro.pgql.errors import PgqlSyntaxError
from repro.sparql import ast as S
from repro.sparql.algebra import HOP

#: The property key a node label desugars to: ``(a:Person)`` matches
#: nodes whose ``label`` property is ``'Person'``.
LABEL_KEY = "label"


class _State:
    """Mutable per-compilation state."""

    def __init__(self) -> None:
        self.counter = 0
        self.node_vars: Set[str] = set()
        self.edge_vars: Set[str] = set()
        #: Node vars with at least one constraining element.
        self.constrained: Set[str] = set()
        self.elements: List[object] = []
        self.filters: List[S.FilterPattern] = []
        #: (var, key) -> hoisted hidden variable holding the value.
        self.prop_vars: Dict[Tuple[str, str], str] = {}
        #: Output-column names claimed as direct binding variables
        #: (properties() expansions); never reusable for another binding.
        self.claimed: Set[str] = set()

    def fresh(self, prefix: str, namespace: str = "_") -> str:
        name = f"{namespace}{prefix}{self.counter}"
        self.counter += 1
        return name


class PgqlCompiler:
    """Base compiler; encoding subclasses override the rule-2 hooks."""

    encoding = "?"

    def __init__(self, vocabulary: Optional[PgVocabulary] = None):
        self.vocabulary = vocabulary if vocabulary is not None else PgVocabulary()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def compile(self, query: P.MatchQuery) -> S.SelectQuery:
        state = _State()
        for path in query.patterns:
            self._compile_path(state, path)
        for var in state.node_vars:
            if var not in state.constrained:
                raise PgqlSyntaxError(
                    f"node variable {var!r} needs a label, a property, or an "
                    "incident edge; SPARQL cannot enumerate unconstrained nodes"
                )
        if query.where is not None:
            state.filters.append(
                S.FilterPattern(self._boolean(state, query.where))
            )
        scope = set(state.node_vars) | set(state.edge_vars)
        select: Optional[S.SelectQuery] = None
        group: Optional[S.GroupPattern] = None
        for index, clause in enumerate(query.clauses):
            first = index == 0
            select = self._compile_clause(state, clause, group, scope, first)
            if clause.kind == "with":
                group = S.GroupPattern((S.SubSelectPattern(select),))
                scope = {p.var for p in select.projections}
        assert select is not None
        return select

    # ------------------------------------------------------------------
    # MATCH patterns
    # ------------------------------------------------------------------

    def _compile_path(self, state: _State, path: P.PathPattern) -> None:
        vocab = self.vocabulary
        node_vars: List[str] = []
        last = len(path.nodes) - 1
        for position, node in enumerate(path.nodes):
            if node.var is not None:
                var = node.var
                if var in state.edge_vars:
                    raise PgqlSyntaxError(
                        f"{var!r} is used as both a node and an edge variable"
                    )
                state.node_vars.add(var)
            else:
                # An anonymous vertex between two edges is a hop: the
                # optimizer merges it away once the path has passed it.
                var = state.fresh("n", HOP if 0 < position < last else "_")
                state.node_vars.add(var)
            pairs = list(node.properties)
            if node.label is not None:
                pairs.insert(0, (LABEL_KEY, node.label))
            for key, value in pairs:
                state.elements.append(
                    S.TriplePattern(
                        var, vocab.key_iri(key), vocab.value_literal(value)
                    )
                )
                state.constrained.add(var)
            node_vars.append(var)
        for position, edge in enumerate(path.edges):
            left, right = node_vars[position], node_vars[position + 1]
            subject, obj = (left, right) if edge.direction == "out" else (right, left)
            state.elements.extend(self._edge_elements(state, subject, obj, edge))
            state.constrained.update((left, right))

    def _edge_elements(
        self, state: _State, subject: str, obj: str, edge: P.EdgePattern
    ) -> List[object]:
        vocab = self.vocabulary
        if edge.var is None and not edge.properties:
            if len(edge.labels) == 1:
                # Rule 1a: a labelled topology edge is the same plain
                # triple under every encoding.
                return [
                    S.TriplePattern(subject, vocab.label_iri(edge.labels[0]), obj)
                ]
            if len(edge.labels) > 1:
                path = S.PathAlternative(
                    tuple(S.PathLink(vocab.label_iri(l)) for l in edge.labels)
                )
                return [S.TriplePattern(subject, path, obj)]
            # Unlabelled topology edge: bind an anonymous edge so the
            # pattern cannot match non-topology quads (rule 1b).
            return self._edge_binding(state, subject, obj, state.fresh("e"), None)
        if len(edge.labels) > 1:
            raise PgqlSyntaxError(
                "label alternation cannot be combined with an edge variable "
                "or edge properties"
            )
        if edge.var is not None:
            if edge.var in state.node_vars:
                raise PgqlSyntaxError(
                    f"{edge.var!r} is used as both a node and an edge variable"
                )
            if edge.var in state.edge_vars:
                raise PgqlSyntaxError(
                    f"edge variable {edge.var!r} is bound more than once"
                )
            state.edge_vars.add(edge.var)
        var = edge.var if edge.var is not None else state.fresh("e")
        label = vocab.label_iri(edge.labels[0]) if edge.labels else None
        elements = self._edge_binding(state, subject, obj, var, label)
        for key, value in edge.properties:
            elements.extend(
                self._edge_kv(var, vocab.key_iri(key), vocab.value_literal(value))
            )
        return elements

    # -- rule-2 hooks, overridden per encoding --------------------------

    def _edge_binding(
        self, state: _State, subject: str, obj: str, edge_var: str, label
    ) -> List[object]:
        raise NotImplementedError

    def _edge_kv(self, edge_var: str, key, value) -> List[object]:
        """Match one known edge property (``key``/``value`` may be
        hidden variables)."""
        return [S.TriplePattern(edge_var, key, value)]

    def _edge_properties(
        self, var: str, key_var: str, value_var: str
    ) -> List[object]:
        """``properties(e)``: enumerate all KV pairs of a bound edge."""
        return [
            S.TriplePattern(var, key_var, value_var),
            _is_literal(value_var),
        ]

    def finalize_elements(self, elements: List[object]) -> List[object]:
        """Encoding-specific normalisation of the match group (NG merges
        same-graph GRAPH clauses)."""
        return elements

    # ------------------------------------------------------------------
    # Property hoisting
    # ------------------------------------------------------------------

    def _prop_var(
        self, state: _State, var: str, key: str, preferred: Optional[str] = None
    ) -> str:
        """The variable bound to ``var.key``, hoisting the rule-3
        pattern on first use.

        ``preferred`` lets a RETURN item bind the value under its output
        column name directly, so projecting it is a plain column pick
        rather than a per-row Extend rename (this is what keeps compiled
        EQ4 at latency parity with the hand-written SPARQL)."""
        try:
            return state.prop_vars[(var, key)]
        except KeyError:
            pass
        if var in state.node_vars:
            is_edge = False
        elif var in state.edge_vars:
            is_edge = True
        else:
            raise PgqlSyntaxError(f"unknown variable {var!r} in {var}.{key}")
        if preferred is not None and self._name_free(state, preferred):
            hidden = preferred
        else:
            hidden = state.fresh(f"{var}_{key}_")
        key_iri = self.vocabulary.key_iri(key)
        if is_edge:
            state.elements.extend(self._edge_kv(var, key_iri, hidden))
        else:
            state.elements.append(S.TriplePattern(var, key_iri, hidden))
        state.prop_vars[(var, key)] = hidden
        return hidden

    @staticmethod
    def _name_free(state: _State, name: str) -> bool:
        """Whether ``name`` can be claimed as a binding variable without
        shadowing a pattern variable or an already-hoisted property."""
        return (
            name not in state.node_vars
            and name not in state.edge_vars
            and name not in state.claimed
            and name not in state.prop_vars.values()
        )

    # ------------------------------------------------------------------
    # WHERE expressions
    # ------------------------------------------------------------------

    def _boolean(self, state: _State, expr: P.PgExpression) -> S.Expression:
        if isinstance(expr, P.AndExpr):
            return S.AndExpr(
                tuple(self._boolean(state, o) for o in expr.operands)
            )
        if isinstance(expr, P.OrExpr):
            return S.OrExpr(
                tuple(self._boolean(state, o) for o in expr.operands)
            )
        if isinstance(expr, P.NotExpr):
            return S.NotExpr(self._boolean(state, expr.operand))
        if isinstance(expr, P.Comparison):
            identity = self._identity_comparison(state, expr)
            if identity is not None:
                return identity
            left = self._value(state, expr.left)
            right = self._value(state, expr.right)
            return S.CompareExpr(expr.op, left, right)
        return self._value(state, expr)

    def _identity_comparison(
        self, state: _State, expr: P.Comparison
    ) -> Optional[S.Expression]:
        """``id(x) = <int>`` compiles to a sargable IRI equality."""
        for id_side, other in (
            (expr.left, expr.right),
            (expr.right, expr.left),
        ):
            if not isinstance(id_side, P.IdRef):
                continue
            if expr.op not in ("=", "!="):
                raise PgqlSyntaxError("id() only supports = and != comparisons")
            if not isinstance(other, P.Literal) or isinstance(
                other.value, bool
            ) or not isinstance(other.value, int):
                raise PgqlSyntaxError(
                    "id() must be compared against an integer literal"
                )
            var = id_side.var
            if var in state.node_vars:
                iri = self.vocabulary.vertex_iri(other.value)
            elif var in state.edge_vars:
                iri = self.vocabulary.edge_iri(other.value)
            else:
                raise PgqlSyntaxError(f"unknown variable {var!r} in id()")
            return S.CompareExpr(expr.op, S.VarExpr(var), S.TermExpr(iri))
        return None

    def _value(self, state: _State, expr: P.PgExpression) -> S.Expression:
        if isinstance(expr, P.VarRef):
            if expr.name not in state.node_vars and expr.name not in state.edge_vars:
                raise PgqlSyntaxError(f"unknown variable {expr.name!r}")
            return S.VarExpr(expr.name)
        if isinstance(expr, P.PropRef):
            return S.VarExpr(self._prop_var(state, expr.var, expr.key))
        if isinstance(expr, P.Literal):
            return S.TermExpr(self.vocabulary.value_literal(expr.value))
        if isinstance(expr, P.IdRef):
            raise PgqlSyntaxError(
                "id() is only supported in WHERE comparisons against an "
                "integer literal"
            )
        if isinstance(expr, (P.AggregateCall, P.PropertiesCall)):
            raise PgqlSyntaxError(
                f"{type(expr).__name__} is not allowed in this position"
            )
        # Parenthesized boolean inside a value position.
        return self._boolean(state, expr)

    # ------------------------------------------------------------------
    # WITH / RETURN clauses
    # ------------------------------------------------------------------

    def _compile_clause(
        self,
        state: _State,
        clause: P.Clause,
        group: Optional[S.GroupPattern],
        scope: Set[str],
        first: bool,
    ) -> S.SelectQuery:
        projections: List[S.Projection] = []
        alias_map: Dict[str, S.Expression] = {}
        group_keys: List[S.Expression] = []
        has_aggregate = False
        has_properties = False
        for item in clause.items:
            expr = item.expression
            if isinstance(expr, P.PropertiesCall):
                has_properties = True
                if clause.kind != "return":
                    raise PgqlSyntaxError(
                        "properties() is only allowed in RETURN"
                    )
                if item.alias is not None:
                    raise PgqlSyntaxError(
                        "properties() cannot take an AS alias; it expands to "
                        "<var>_key and <var>_value columns"
                    )
                expanded = self._properties_projections(
                    state, expr.var, scope, first
                )
                for projection in expanded:
                    if projection.var in alias_map:
                        raise PgqlSyntaxError(
                            f"duplicate output column {projection.var!r}"
                        )
                    alias_map[projection.var] = (
                        projection.expression
                        if projection.expression is not None
                        else S.VarExpr(projection.var)
                    )
                projections.extend(expanded)
                continue
            compiled, default_name = self._item_expr(
                state, expr, scope, first, alias=item.alias
            )
            if isinstance(expr, P.AggregateCall):
                has_aggregate = True
                if item.alias is None:
                    raise PgqlSyntaxError(
                        f"{expr.name}(...) needs an AS alias"
                    )
            name = item.alias if item.alias is not None else default_name
            if name is None:
                raise PgqlSyntaxError(
                    "this RETURN item needs an AS alias"
                )
            if name in alias_map:
                raise PgqlSyntaxError(f"duplicate output column {name!r}")
            alias_map[name] = compiled
            if isinstance(compiled, S.VarExpr) and compiled.name == name:
                projections.append(S.Projection(name))
            else:
                projections.append(S.Projection(name, compiled))
            if not isinstance(expr, P.AggregateCall):
                group_keys.append(compiled)
        if has_aggregate and has_properties:
            raise PgqlSyntaxError(
                "properties() cannot be combined with aggregates"
            )
        if clause.group_by:
            group_keys = [
                self._item_value(state, key, scope, first)
                for key in clause.group_by
            ]
        elif not has_aggregate:
            group_keys = []
        order_by = tuple(
            S.OrderCondition(
                self._order_expr(state, item, alias_map, scope, first),
                descending=item.descending,
            )
            for item in clause.order_by
        )
        if group is None:
            elements = self.finalize_elements(state.elements)
            group = S.GroupPattern(tuple(elements) + tuple(state.filters))
        return S.SelectQuery(
            projections=tuple(projections),
            where=group,
            distinct=clause.distinct,
            group_by=tuple(group_keys),
            group_by_aliases=tuple(None for _ in group_keys),
            order_by=order_by,
            limit=clause.limit,
            offset=clause.offset if clause.offset is not None else 0,
        )

    def _item_expr(
        self,
        state: _State,
        expr: P.PgExpression,
        scope: Set[str],
        first: bool,
        alias: Optional[str] = None,
    ) -> Tuple[S.Expression, Optional[str]]:
        """Compile a WITH/RETURN item; returns (expression, default name)."""
        if isinstance(expr, P.AggregateCall):
            argument = (
                self._item_value(state, expr.argument, scope, first)
                if expr.argument is not None
                else None
            )
            return S.AggregateExpr(expr.name, argument, expr.distinct), None
        if isinstance(expr, P.VarRef):
            self._check_scope(state, expr.name, scope, first)
            return S.VarExpr(expr.name), expr.name
        if isinstance(expr, P.PropRef):
            if not first:
                raise PgqlSyntaxError(
                    f"property {expr.var}.{expr.key} is not visible after WITH; "
                    "project it in the WITH clause instead"
                )
            default = f"{expr.var}_{expr.key}"
            hidden = self._prop_var(
                state, expr.var, expr.key, preferred=alias or default
            )
            return S.VarExpr(hidden), default
        return self._item_value(state, expr, scope, first), None

    def _item_value(
        self,
        state: _State,
        expr: P.PgExpression,
        scope: Set[str],
        first: bool,
    ) -> S.Expression:
        if first:
            return self._value(state, expr)
        if isinstance(expr, P.VarRef):
            self._check_scope(state, expr.name, scope, first)
            return S.VarExpr(expr.name)
        if isinstance(expr, P.Literal):
            return S.TermExpr(self.vocabulary.value_literal(expr.value))
        raise PgqlSyntaxError(
            "only projected variables and literals are visible after WITH"
        )

    def _check_scope(
        self, state: _State, name: str, scope: Set[str], first: bool
    ) -> None:
        if name not in scope:
            raise PgqlSyntaxError(f"unknown variable {name!r}")

    def _order_expr(
        self,
        state: _State,
        item: P.OrderItem,
        alias_map: Dict[str, S.Expression],
        scope: Set[str],
        first: bool,
    ) -> S.Expression:
        expr = item.expression
        # ``ORDER BY alias`` sorts by the aliased expression, so
        # aggregate aliases work (the algebra rewrites aggregate order
        # keys to hidden columns).
        if isinstance(expr, P.VarRef) and expr.name in alias_map:
            return alias_map[expr.name]
        if isinstance(expr, P.AggregateCall):
            argument = (
                self._item_value(state, expr.argument, scope, first)
                if expr.argument is not None
                else None
            )
            return S.AggregateExpr(expr.name, argument, expr.distinct)
        return self._item_value(state, expr, scope, first)

    def _properties_projections(
        self, state: _State, var: str, scope: Set[str], first: bool
    ) -> List[S.Projection]:
        if not first:
            raise PgqlSyntaxError(
                f"properties({var}) is not available after WITH"
            )
        if var in state.node_vars:
            is_edge = False
        elif var in state.edge_vars:
            is_edge = True
        else:
            raise PgqlSyntaxError(f"unknown variable {var!r} in properties()")
        # Bind directly under the output column names when free — a bare
        # column projection instead of two per-row Extend renames.
        key_var, value_var = f"{var}_key", f"{var}_value"
        if not (self._name_free(state, key_var) and self._name_free(state, value_var)):
            key_var = state.fresh(f"{var}_key_")
            value_var = state.fresh(f"{var}_value_")
        state.claimed.update((key_var, value_var))
        if is_edge:
            state.elements.extend(self._edge_properties(var, key_var, value_var))
        else:
            state.elements.append(S.TriplePattern(var, key_var, value_var))
            state.elements.append(_is_literal(value_var))

        def projection(name: str, bound: str) -> S.Projection:
            if bound == name:
                return S.Projection(name)
            return S.Projection(name, S.VarExpr(bound))

        return [
            projection(f"{var}_key", key_var),
            projection(f"{var}_value", value_var),
        ]


def _is_literal(var: str) -> S.FilterPattern:
    return S.FilterPattern(S.FunctionExpr("ISLITERAL", (S.VarExpr(var),)))


def _is_iri(var: str) -> S.FilterPattern:
    return S.FilterPattern(S.FunctionExpr("ISIRI", (S.VarExpr(var),)))


def compiler_for(
    encoding: str, vocabulary: Optional[PgVocabulary] = None
) -> PgqlCompiler:
    """The compiler for one of the paper's encodings (``RF``/``NG``/``SP``)."""
    from repro.pgql.compile_ng import NgCompiler
    from repro.pgql.compile_rf import RfCompiler
    from repro.pgql.compile_sp import SpCompiler

    classes = {"NG": NgCompiler, "SP": SpCompiler, "RF": RfCompiler}
    try:
        cls = classes[encoding.upper()]
    except (KeyError, AttributeError):
        raise PgqlSyntaxError(
            f"unknown PGQL encoding {encoding!r}; expected one of NG, SP, RF"
        )
    return cls(vocabulary)
