"""Tests for how EXISTS groups are compiled into the physical plan.

An EXISTS group becomes a sub-plan seeded with the outer row's bound
variables.  The compiler builds one sub-plan per EXISTS; a row that
leaves some correlated variables unbound compiles its own variant on
first use, so plan time does not grow with the number of optional
variables.  The sub-plans follow the engine's rewrite-rule settings.
"""

import pytest

from repro.rdf import IRI, Quad
from repro.sparql import SparqlEngine
from repro.sparql.executor import compile_query
from repro.sparql.physical import Compiler, FilterApplyOp, SeedColumnOp
from repro.store import SemanticNetwork
from repro.testing.reference import Evaluator

EX = "http://ex/"
WIDTH = 20


def ex(name: str) -> IRI:
    return IRI(EX + name)


@pytest.fixture
def network():
    """``a`` has every ``p<i>`` and matching ``q`` values, ``b`` only
    ``p0`` and ``q o0``, ``c`` neither."""
    net = SemanticNetwork()
    net.create_model("m")
    quads = [Quad(ex(s), ex("type"), ex("T")) for s in ("a", "b", "c")]
    for i in range(WIDTH):
        quads.append(Quad(ex("a"), ex(f"p{i}"), ex(f"o{i}")))
        quads.append(Quad(ex("a"), ex("q"), ex(f"o{i}")))
    quads.append(Quad(ex("b"), ex("p0"), ex("o0")))
    quads.append(Quad(ex("b"), ex("q"), ex("o0")))
    net.bulk_load("m", quads)
    return net


def engine(network, **options):
    return SparqlEngine(
        network, prefixes={"ex": EX}, default_model="m", **options
    )


OPTIONALS = " ".join(
    f"OPTIONAL {{ ?x ex:p{i} ?v{i} }}" for i in range(WIDTH)
)
CORRELATED = " . ".join(f"?x ex:q ?v{i}" for i in range(WIDTH))
KEYS = " ".join(f"?v{i}" for i in range(WIDTH))

WIDE_FILTER = (
    f"SELECT ?x WHERE {{ ?x ex:type ex:T {OPTIONALS} "
    f"FILTER EXISTS {{ {CORRELATED} }} }}"
)
WIDE_HAVING = (
    f"SELECT ?x WHERE {{ ?x ex:type ex:T {OPTIONALS} }} "
    f"GROUP BY ?x {KEYS} HAVING (EXISTS {{ {CORRELATED} }})"
)


@pytest.fixture
def variant_count(monkeypatch):
    """Counts EXISTS sub-plan compiles."""
    calls = []
    original = Compiler.seeded

    def counting(self, group, names, graph, *rows):
        calls.append(names)
        return original(self, group, names, graph, *rows)

    monkeypatch.setattr(Compiler, "seeded", counting)
    return calls


def _walk(op):
    yield op
    for child in op.children():
        yield from _walk(child)


@pytest.mark.parametrize("text", [WIDE_FILTER, WIDE_HAVING])
class TestCompileCountIsBounded:
    def test_compile_builds_one_sub_plan(self, network, variant_count, text):
        eng = engine(network)
        eng.explain_plan(text)
        assert len(variant_count) == 1
        assert len(variant_count[0]) == WIDTH + 1  # ?x and every ?v<i>

    def test_run_compiles_only_the_shapes_the_rows_have(
        self, network, variant_count, text
    ):
        eng = engine(network)
        rows = {row[0] for row in eng.select(text).rows}
        assert rows == {ex("a"), ex("b")}
        # a binds every ?v<i>, b only ?v0, c none of them.
        assert sorted(len(names) for names in variant_count) == [
            1, 2, WIDTH + 1,
        ]
        # A second run reuses the cached plan and its variants.
        eng.select(text)
        assert len(variant_count) == 3

    def test_matches_the_oracle(self, network, text):
        eng = engine(network)
        oracle = Evaluator(network, network.model("m"))
        expected = oracle.select(eng._parse_query(text)).rows
        assert sorted(eng.select(text).rows) == sorted(expected)


class TestExistsFollowsFilterPushdown:
    TEXT = (
        "SELECT ?x WHERE { ?x ex:type ex:T "
        "FILTER EXISTS { ?x ex:q ?w FILTER(?w = ex:o1) } }"
    )

    def _sub_plan_ops(self, eng):
        compiled = compile_query(
            eng._parse_query(self.TEXT),
            eng.network,
            eng.network.model("m"),
            "m",
            filter_pushdown=eng._filter_pushdown,
        )
        ops, stack = [], [compiled.root]
        while stack:
            op = stack.pop()
            for sub in op.subplans:
                ops.extend(_walk(sub))
            stack.extend(op.children()[:1])
        return ops

    def test_pushdown_on_seeds_the_sub_plan(self, network):
        ops = self._sub_plan_ops(engine(network))
        assert any(isinstance(op, SeedColumnOp) for op in ops)

    def test_pushdown_off_keeps_the_filter(self, network):
        eng = engine(network, filter_pushdown=False)
        ops = self._sub_plan_ops(eng)
        assert not any(isinstance(op, SeedColumnOp) for op in ops)
        assert any(isinstance(op, FilterApplyOp) for op in ops)
        assert [row[0] for row in eng.select(self.TEXT).rows] == [ex("a")]
