"""Unit tests for the logical algebra and the optimizer rules.

Each rewrite rule is a pure ``Plan -> Plan`` function; these tests pin
its behaviour on hand-built plans, independent of execution.
"""

import pytest

from repro.rdf import IRI, Literal
from repro.sparql import algebra as A
from repro.sparql.ast import (
    AndExpr,
    CompareExpr,
    FunctionExpr,
    TermExpr,
    VarExpr,
)
from repro.sparql.optimize import (
    drop_unit_joins,
    fold_constants,
    fold_expression,
    optimize,
    place_slice,
    prune_extends,
    push_filters,
)
from repro.sparql.parser import Parser

EX = "http://ex/"
_parser = Parser({"ex": EX})


def lower(query_text: str) -> A.Plan:
    return A.lower_select(_parser.parse_query(query_text))


def lower_where(query_text: str) -> A.Plan:
    return A.lower_group(_parser.parse_query(query_text).where)


def find(plan: A.Plan, kind) -> list:
    found = []

    def walk(node):
        if isinstance(node, kind):
            found.append(node)
        for child in A.children(node):
            walk(child)

    walk(plan)
    return found


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------


class TestLowerGroup:
    def test_adjacent_patterns_form_one_bgp(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c }"
        )
        bgps = find(plan, A.BGP)
        assert len(bgps) == 1
        assert len(bgps[0].patterns) == 2
        assert bgps[0].fresh  # first flush of the group

    def test_filter_breaks_bgp_accumulation(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b FILTER (?b > 1) ?b ex:q ?c }"
        )
        bgps = find(plan, A.BGP)
        assert len(bgps) == 2
        # Every flush starts "fresh": its first step executes even on
        # an empty input relation (the evaluator's chain_first rule).
        assert all(bgp.fresh for bgp in bgps)
        filters = find(plan, A.Filter)
        assert len(filters) == 1 and filters[0].origin == "group_end"

    def test_property_path_splits_into_path_step(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b . ?b (ex:q)+ ?c }"
        )
        # The closure is a step of its own BGP after the plain flush.
        bgps = find(plan, A.BGP)
        assert len(bgps) == 2
        assert [p.predicate_is_path() for b in bgps for p in b.patterns] == [
            True, False,
        ]

    def test_group_end_filters_wrap_in_syntax_order(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b FILTER (?x = 1) FILTER (?y = 2) }"
        )
        filters = find(plan, A.Filter)
        # Outermost filter is the last one in syntax order.
        assert len(filters) == 2

    def test_optional_lowers_to_left_join(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } }"
        )
        assert len(find(plan, A.LeftJoin)) == 1

    def test_union_and_minus(self):
        plan = lower_where(
            "SELECT * WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?b } "
            "MINUS { ?a ex:r ?b } }"
        )
        assert len(find(plan, A.Union)) == 1
        assert len(find(plan, A.Minus)) == 1


class TestLowerSelect:
    def test_solution_modifier_stack_order(self):
        plan = lower(
            "SELECT DISTINCT ?a WHERE { ?a ex:p ?b } "
            "ORDER BY ?a LIMIT 5 OFFSET 2"
        )
        # Slice(Distinct(Project(OrderBy(...)))) before optimization.
        assert isinstance(plan, A.Slice)
        assert plan.limit == 5 and plan.offset == 2
        assert isinstance(plan.input, A.Distinct)
        assert isinstance(plan.input.input, A.Project)
        assert isinstance(plan.input.input.input, A.OrderBy)

    def test_select_expressions_become_extends(self):
        plan = lower(
            "SELECT ?a (?b * 2 AS ?double) WHERE { ?a ex:p ?b }"
        )
        extends = find(plan, A.Extend)
        assert len(extends) == 1
        assert extends[0].var == "double"
        assert extends[0].kind == "projection"

    def test_aggregate_query_lowers_to_aggregate_node(self):
        plan = lower(
            "SELECT ?a (COUNT(?b) AS ?c) WHERE { ?a ex:p ?b } GROUP BY ?a"
        )
        assert len(find(plan, A.Aggregate)) == 1


class TestSchemaVars:
    def test_bgp_schema_and_certainty(self):
        plan = lower_where("SELECT * WHERE { ?a ex:p ?b }")
        assert A.schema_vars(plan) == frozenset({"a", "b"})
        assert A.certain_vars(plan) == frozenset({"a", "b"})

    def test_left_join_optional_vars_not_certain(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } }"
        )
        assert "c" in A.schema_vars(plan)
        assert "c" not in A.certain_vars(plan)
        assert "a" in A.certain_vars(plan)

    def test_union_certainty_is_intersection(self):
        plan = lower_where(
            "SELECT * WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?c } }"
        )
        assert A.schema_vars(plan) == frozenset({"a", "b", "c"})
        assert A.certain_vars(plan) == frozenset({"a"})


# ----------------------------------------------------------------------
# Optimizer rules
# ----------------------------------------------------------------------


class TestFoldConstants:
    def test_folds_constant_arithmetic(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b FILTER (?b > 2 + 3) }"
        )
        folded = fold_constants(plan)
        expr = find(folded, A.Filter)[0].expression
        assert isinstance(expr, CompareExpr)
        assert isinstance(expr.right, TermExpr)
        assert expr.right.term.to_python() == 5

    def test_leaves_variables_alone(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b FILTER (?b > ?a) }"
        )
        assert fold_constants(plan) == plan

    def test_erroring_expression_left_untouched(self):
        # 1/0 raises at evaluation time; folding must not change that.
        expr = fold_expression(
            _parser.parse_query(
                "SELECT * WHERE { ?a ex:p ?b FILTER (?b > 1/0) }"
            ).where.elements[-1].expression
        )
        assert not isinstance(expr.right, TermExpr)


class TestPushFilters:
    def test_certain_filter_sinks_into_bgp(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c FILTER (?b != ?c) }"
        )
        pushed = push_filters(plan)
        assert not find(pushed, A.Filter)  # consumed into BGP.filters
        bgp = find(pushed, A.BGP)[0]
        assert len(bgp.filters) == 1

    def test_constant_equality_becomes_seed(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b FILTER (?a = ex:alice) }"
        )
        pushed = push_filters(plan)
        bgp = find(pushed, A.BGP)[0]
        assert any(var == "a" for var, _ in bgp.seeds)
        assert not find(pushed, A.Filter)

    def test_uncertain_filter_stays_at_group_end(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c } "
            "FILTER (?c > 1) }"
        )
        pushed = push_filters(plan)
        filters = find(pushed, A.Filter)
        assert len(filters) == 1
        assert filters[0].origin == "group_end"
        assert isinstance(pushed, A.Filter)  # still above the LeftJoin

    def test_exists_filter_never_pushed(self):
        plan = lower_where(
            "SELECT * WHERE { ?a ex:p ?b "
            "FILTER EXISTS { ?a ex:q ?c } }"
        )
        pushed = push_filters(plan)
        assert len(find(pushed, A.Filter)) == 1

    def test_seed_crosses_a_leading_graph_var_into_its_flush(self):
        pushed = push_filters(lower(
            "SELECT ?o WHERE { GRAPH ?g { ?s ex:p ?o } FILTER (?s = ex:a) }"
        ))
        (bgp,) = find(pushed, A.BGP)
        assert [var for var, _ in bgp.seeds] == ["s"]
        assert not find(pushed, A.Filter)

    @pytest.mark.parametrize("query", [
        # The graph variable itself, also where a pattern names it.
        "SELECT ?o WHERE { GRAPH ?g { ?s ex:p ?o } FILTER (?g = ex:a) }",
        "SELECT ?o WHERE { GRAPH ?g { ?s ex:p ?o . ?g ex:k ?w } "
        "FILTER (?g = ex:a) }",
        # Bound only by an OPTIONAL inside the GRAPH, only by a later
        # outer pattern (whose flush takes the seed), or by nothing.
        "SELECT ?o WHERE { GRAPH ?g { ?s ex:p ?o OPTIONAL { ?o ex:q ?t } } "
        "FILTER (?t = ex:a) }",
        "SELECT ?o WHERE { GRAPH ?g { ?s ex:p ?o } ?o ex:q ?t "
        "FILTER (?t = ex:a) }",
        "SELECT ?o WHERE { GRAPH ?g { ?s ex:p ?o } FILTER (?z = ex:a) }",
        # SELECT * shows the column order the seed would change.
        "SELECT * WHERE { GRAPH ?g { ?s ex:p ?o } FILTER (?s = ex:a) }",
    ])
    def test_seed_stays_out_of_the_graph_subgroup(self, query):
        (graph,) = find(push_filters(lower(query)), A.Graph)
        assert not any(bgp.seeds for bgp in find(graph, A.BGP))


class TestDropUnitJoins:
    def test_unit_is_the_join_identity(self):
        bgp = A.BGP(A.Unit(), ())
        assert drop_unit_joins(A.Join(A.Unit(), bgp)) == bgp
        assert drop_unit_joins(A.Join(bgp, A.Unit())) == bgp

    def test_leading_graph_group_loses_its_join(self):
        plan = drop_unit_joins(lower_where(
            "SELECT * WHERE { GRAPH ?g { ?s ex:p ?o } ?o ex:q ?t }"
        ))
        assert not find(plan, A.Join)
        assert isinstance(plan.input, A.Graph)


class TestPruneExtends:
    def test_unused_bind_is_dropped(self):
        plan = lower(
            "SELECT ?a WHERE { ?a ex:p ?b BIND (?b * 2 AS ?unused) }"
        )
        pruned = prune_extends(plan)
        assert not find(pruned, A.Extend)

    def test_projected_bind_is_kept(self):
        plan = lower(
            "SELECT ?a ?d WHERE { ?a ex:p ?b BIND (?b * 2 AS ?d) }"
        )
        assert len(find(prune_extends(plan), A.Extend)) == 1

    def test_protected_vars_survive(self):
        plan = lower(
            "SELECT ?a WHERE { ?a ex:p ?b BIND (?b * 2 AS ?tpl) }"
        )
        pruned = prune_extends(plan, protected=frozenset({"tpl"}))
        assert len(find(pruned, A.Extend)) == 1

    def test_star_projection_keeps_every_bind(self):
        plan = lower(
            "SELECT * WHERE { ?a ex:p ?b BIND (?b * 2 AS ?d) }"
        )
        assert len(find(prune_extends(plan), A.Extend)) == 1


class TestPlaceSlice:
    def test_slice_pushes_through_project(self):
        plan = lower("SELECT ?a WHERE { ?a ex:p ?b } LIMIT 3")
        placed = place_slice(plan)
        assert isinstance(placed, A.Project)
        assert isinstance(placed.input, A.Slice)

    def test_slice_fuses_top_k_into_order_by(self):
        plan = lower(
            "SELECT ?a WHERE { ?a ex:p ?b } ORDER BY ?a LIMIT 3 OFFSET 1"
        )
        placed = place_slice(plan)
        order = find(placed, A.OrderBy)[0]
        assert order.top == 4  # offset + limit

    def test_distinct_blocks_slice_pushdown(self):
        plan = lower("SELECT DISTINCT ?a WHERE { ?a ex:p ?b } LIMIT 3")
        placed = place_slice(plan)
        # Slicing below Distinct would change results; Slice stays above.
        assert isinstance(placed, A.Slice)
        assert isinstance(placed.input, A.Distinct)


class TestOptimizeComposition:
    def test_rules_are_pure(self):
        plan = lower(
            "SELECT ?a WHERE { ?a ex:p ?b FILTER (?b > 1 + 1) } LIMIT 2"
        )
        before = A.render(plan)
        optimize(plan)
        assert A.render(plan) == before  # input plan untouched

    def test_end_to_end_shape(self):
        optimized = optimize(
            lower(
                "SELECT ?a WHERE { ?a ex:p ?b . ?b ex:q ?c "
                "FILTER (?c != ?a) } ORDER BY ?a LIMIT 2"
            )
        )
        order = find(optimized, A.OrderBy)[0]
        assert order.top == 2
        bgp = find(optimized, A.BGP)[0]
        assert len(bgp.filters) == 1
        assert not find(optimized, A.Filter)

    def test_filter_pushdown_flag_disables_sinking(self):
        optimized = optimize(
            lower_where(
                "SELECT * WHERE { ?a ex:p ?b FILTER (?b != ?a) }"
            ),
            filter_pushdown=False,
        )
        filters = find(optimized, A.Filter)
        assert len(filters) == 1 and filters[0].origin == "group_end"


class TestRenderRoundTrip:
    def test_to_dict_mirrors_render(self):
        plan = optimize(
            lower("SELECT ?a WHERE { ?a ex:p ?b } ORDER BY ?a LIMIT 2")
        )
        document = A.to_dict(plan)

        def labels(node):
            yield node["label"]
            for child in node.get("children", ()):
                yield from labels(child)

        rendered = A.render(plan)
        for label in labels(document):
            assert label in rendered
