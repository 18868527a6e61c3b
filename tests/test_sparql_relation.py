"""Unit tests for the Relation solution-bag machinery."""

import pytest

from repro.testing.reference import Relation, join, left_join, minus, union


class TestRelationBasics:
    def test_unit(self):
        unit = Relation.unit()
        assert len(unit) == 1
        assert unit.variables == ()

    def test_cardinality_with_mults(self):
        rel = Relation(("x",), [(1,), (2,)], [3, 4])
        assert len(rel) == 2
        assert rel.cardinality == 7

    def test_mult_vector_length_checked(self):
        with pytest.raises(ValueError):
            Relation(("x",), [(1,)], [1, 2])

    def test_project_reorders_and_pads(self):
        rel = Relation(("x", "y"), [(1, 2)])
        projected = rel.project(["y", "z"])
        assert projected.variables == ("y", "z")
        assert projected.rows == [(2, None)]

    def test_distinct(self):
        rel = Relation(("x",), [(1,), (1,), (2,)])
        assert len(rel.distinct()) == 2

    def test_compact_merges_mults(self):
        rel = Relation(("x",), [(1,), (1,), (2,)])
        compacted = rel.compact()
        assert len(compacted) == 2
        assert compacted.cardinality == 3

    def test_extended(self):
        rel = Relation(("x",), [(1,), (2,)])
        extended = rel.extended("y", [10, 20])
        assert extended.rows == [(1, 10), (2, 20)]

    def test_extended_rejects_existing_var(self):
        with pytest.raises(ValueError):
            Relation(("x",), [(1,)]).extended("x", [2])


class TestJoin:
    def test_shared_variable_join(self):
        left = Relation(("x", "y"), [(1, 2), (3, 4)])
        right = Relation(("y", "z"), [(2, 20), (2, 21), (9, 99)])
        result = join(left, right)
        assert result.variables == ("x", "y", "z")
        assert sorted(result.rows) == [(1, 2, 20), (1, 2, 21)]

    def test_cartesian_when_no_shared_vars(self):
        left = Relation(("x",), [(1,), (2,)])
        right = Relation(("y",), [(10,)])
        result = join(left, right)
        assert sorted(result.rows) == [(1, 10), (2, 10)]

    def test_multiplicities_multiply(self):
        left = Relation(("x",), [(1,)], [3])
        right = Relation(("x",), [(1,)], [4])
        result = join(left, right)
        assert result.cardinality == 12

    def test_unbound_left_key_is_compatible(self):
        left = Relation(("x", "y"), [(None, 5)])
        right = Relation(("x",), [(1,)])
        result = join(left, right)
        # None is compatible; x gets filled from the right side.
        assert result.rows == [(1, 5)]

    def test_unbound_right_key_is_compatible(self):
        left = Relation(("x",), [(1,)])
        right = Relation(("x", "z"), [(None, 7)])
        result = join(left, right)
        assert result.rows == [(1, 7)]

    def test_join_with_unit(self):
        rel = Relation(("x",), [(1,), (2,)])
        assert sorted(join(Relation.unit(), rel).rows) == [(1,), (2,)]


class TestLeftJoin:
    def test_keeps_unmatched_left_rows(self):
        left = Relation(("x",), [(1,), (2,)])
        right = Relation(("x", "y"), [(1, 10)])
        result = left_join(left, right)
        assert sorted(result.rows, key=repr) == sorted(
            [(1, 10), (2, None)], key=repr
        )

    def test_matched_rows_not_duplicated(self):
        left = Relation(("x",), [(1,)])
        right = Relation(("x", "y"), [(1, 10), (1, 11)])
        result = left_join(left, right)
        assert len(result) == 2


class TestMinus:
    def test_removes_matching(self):
        left = Relation(("x",), [(1,), (2,)])
        right = Relation(("x",), [(1,)])
        assert minus(left, right).rows == [(2,)]

    def test_no_shared_vars_keeps_all(self):
        left = Relation(("x",), [(1,)])
        right = Relation(("y",), [(1,)])
        assert minus(left, right).rows == [(1,)]


class TestUnion:
    def test_aligns_variables(self):
        a = Relation(("x",), [(1,)])
        b = Relation(("y",), [(2,)])
        result = union([a, b])
        assert result.variables == ("x", "y")
        assert sorted(result.rows, key=repr) == sorted(
            [(1, None), (None, 2)], key=repr
        )

    def test_bag_semantics(self):
        a = Relation(("x",), [(1,)])
        b = Relation(("x",), [(1,)])
        assert union([a, b]).cardinality == 2
