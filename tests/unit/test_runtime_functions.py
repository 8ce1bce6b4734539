"""Runtime helpers (EBV, comparisons, arithmetic) and built-in functions."""

import pytest

from repro.algebra.functions import call_function
from repro.algebra.runtime import (DynamicError, arithmetic, atomize,
                                   effective_boolean_value, general_compare,
                                   numeric_value, string_value)
from repro.xmltree import IndexedDocument

DOC = IndexedDocument.from_string("<a><b>1</b><b>2</b><c>xyz</c></a>")
B1, B2 = DOC.stream("b")
C = DOC.stream("c")[0]


class TestEBV:
    def test_empty_is_false(self):
        assert effective_boolean_value([]) is False

    def test_node_first_is_true(self):
        assert effective_boolean_value([B1]) is True
        assert effective_boolean_value([B1, B2]) is True

    def test_boolean_singleton(self):
        assert effective_boolean_value([True]) is True
        assert effective_boolean_value([False]) is False

    def test_numeric_singleton(self):
        assert effective_boolean_value([0]) is False
        assert effective_boolean_value([3]) is True
        assert effective_boolean_value([0.0]) is False

    def test_string_singleton(self):
        assert effective_boolean_value([""]) is False
        assert effective_boolean_value(["x"]) is True

    def test_multi_atomic_raises(self):
        with pytest.raises(DynamicError):
            effective_boolean_value([1, 2])


class TestComparisons:
    def test_existential(self):
        assert general_compare("=", [1, 2, 3], [3, 9])
        assert not general_compare("=", [1, 2], [3, 9])

    def test_node_atomization(self):
        assert general_compare("=", [B1], ["1"])
        assert general_compare("=", [B1, B2], ["2"])

    def test_numeric_coercion(self):
        assert general_compare("=", [B1], [1])
        assert general_compare("<", [B1], [2])

    def test_uncomparable_pairs_skipped(self):
        assert not general_compare("=", [C], [1])  # "xyz" vs number

    def test_string_comparison(self):
        assert general_compare(">", ["b"], ["a"])

    def test_empty_operand(self):
        assert not general_compare("=", [], [1])
        assert not general_compare("!=", [1], [])


class TestIntegerComparisonFastPath:
    """Two one-item sequences of plain ``int`` inside ±2**53 are compared
    directly; the answer is the general path's (atomize, coerce to
    ``float``, compare) for every pair of values, in or out."""

    EDGE = 2 ** 53
    VALUES = [0, 1, -1, 2, EDGE - 1, EDGE, EDGE + 1, -EDGE + 1, -EDGE,
              -EDGE - 1, True, False, 1.0, 0.5, float(EDGE), "1", "x",
              float("nan")]

    @staticmethod
    def general_path(op, left, right):
        from repro.algebra.runtime import _OPERATORS, _coerce_pair
        pair = _coerce_pair(left, right)
        return pair is not None and _OPERATORS[op](*pair)

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_every_pair_answers_as_the_general_path(self, op):
        for left in self.VALUES:
            for right in self.VALUES:
                assert general_compare(op, [left], [right]) \
                    is self.general_path(op, left, right), (left, op, right)

    def test_the_cases_that_tell_the_paths_apart(self):
        edge = self.EDGE
        # Exact up to the edge; past it the float comparison rounds.
        assert not general_compare("=", [edge - 1], [edge])
        assert general_compare("<", [edge - 1], [edge])
        assert general_compare("=", [edge], [edge + 1])
        assert not general_compare("<", [edge], [edge + 1])
        # ``bool`` is an ``int`` to ``isinstance`` only.
        assert general_compare("=", [True], [1])
        assert general_compare("=", [True], [2])
        assert general_compare("=", [1], [1.0])
        assert general_compare("=", ["1"], [1])
        nan = float("nan")
        assert not general_compare("=", [nan], [nan])
        assert general_compare("!=", [nan], [1])


class TestArithmetic:
    def test_basic(self):
        assert arithmetic("+", [2], [3]) == [5]
        assert arithmetic("-", [2], [3]) == [-1]
        assert arithmetic("*", [2], [3]) == [6]
        assert arithmetic("div", [7], [2]) == [3.5]
        assert arithmetic("div", [6], [2]) == [3]
        assert arithmetic("mod", [7], [2]) == [1]

    def test_empty_propagates(self):
        assert arithmetic("+", [], [3]) == []
        assert arithmetic("+", [3], []) == []

    def test_node_operands_atomized(self):
        assert arithmetic("+", [B1], [B2]) == [3]

    def test_division_by_zero(self):
        with pytest.raises(DynamicError):
            arithmetic("div", [1], [0])

    def test_non_numeric_raises(self):
        with pytest.raises(DynamicError):
            arithmetic("+", [C], [1])

    def test_multi_item_raises(self):
        with pytest.raises(DynamicError):
            arithmetic("+", [1, 2], [1])


class TestHelpers:
    def test_atomize(self):
        assert atomize([B1, "x", 3]) == ["1", "x", 3]

    def test_numeric_value(self):
        assert numeric_value([B1], "t") == 1
        assert numeric_value(["2.5"], "t") == 2.5
        assert numeric_value([], "t") is None

    def test_string_value(self):
        assert string_value([]) == ""
        assert string_value([B1]) == "1"
        assert string_value([True]) == "true"
        assert string_value([3]) == "3"


class TestFunctions:
    def test_count(self):
        assert call_function("fn:count", [[1, 2, 3]]) == [3]
        assert call_function("fn:count", [[]]) == [0]

    def test_boolean_not(self):
        assert call_function("fn:boolean", [[B1]]) == [True]
        assert call_function("fn:not", [[]]) == [True]

    def test_exists_empty(self):
        assert call_function("fn:exists", [[1]]) == [True]
        assert call_function("fn:empty", [[1]]) == [False]

    def test_root(self):
        assert call_function("fn:root", [[B1]]) == [DOC.root]
        assert call_function("fn:root", [[B1, B2]]) == [DOC.root]

    def test_string_functions(self):
        assert call_function("fn:string", [[B1]]) == ["1"]
        assert call_function("fn:concat", [["a"], ["b"], ["c"]]) == ["abc"]
        assert call_function("fn:contains", [["hello"], ["ell"]]) == [True]
        assert call_function("fn:starts-with", [["hello"], ["he"]]) == [True]
        assert call_function("fn:string-length", [["abc"]]) == [3]

    def test_name(self):
        assert call_function("fn:name", [[B1]]) == ["b"]
        assert call_function("fn:name", [[]]) == [""]

    def test_number(self):
        assert call_function("fn:number", [[B1]]) == [1]
        assert call_function("fn:number", [[]]) == []

    def test_aggregates(self):
        assert call_function("fn:sum", [[1, 2, 3]]) == [6]
        assert call_function("fn:min", [[3, 1, 2]]) == [1]
        assert call_function("fn:max", [[3, 1, 2]]) == [3]
        assert call_function("fn:avg", [[2, 4]]) == [3.0]
        assert call_function("fn:sum", [[]]) == [0]
        assert call_function("fn:min", [[]]) == []

    def test_distinct_values(self):
        assert call_function("fn:distinct-values", [[1, 2, 1, "1"]]) \
            == [1, 2, "1"]

    def test_reverse_subsequence(self):
        assert call_function("fn:reverse", [[1, 2, 3]]) == [3, 2, 1]
        assert call_function("fn:subsequence", [[1, 2, 3, 4], [2], [2]]) \
            == [2, 3]
        assert call_function("fn:subsequence", [[1, 2, 3], [2]]) == [2, 3]

    def test_cardinality_checks(self):
        assert call_function("fn:zero-or-one", [[1]]) == [1]
        assert call_function("fn:exactly-one", [[1]]) == [1]
        with pytest.raises(DynamicError):
            call_function("fn:zero-or-one", [[1, 2]])
        with pytest.raises(DynamicError):
            call_function("fn:exactly-one", [[]])

    def test_op_to(self):
        assert call_function("op:to", [[1], [4]]) == [1, 2, 3, 4]
        assert call_function("op:to", [[3], [1]]) == []

    def test_op_union(self):
        assert call_function("op:union", [[B2, B1], [B1]]) == [B1, B2]
        with pytest.raises(DynamicError):
            call_function("op:union", [[1], [2]])

    def test_unknown_function(self):
        with pytest.raises(DynamicError):
            call_function("fn:frobnicate", [[]])
