"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.errors import GraphError, VertexError
from repro.util.validation import (
    as_index_array,
    check_op_codes,
    check_probability,
    check_same_length,
    check_vertex_ids,
)


class TestAsIndexArray:
    def test_list(self):
        out = as_index_array([1, 2, 3])
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2, 3]

    def test_integral_floats_ok(self):
        assert as_index_array([1.0, 2.0]).tolist() == [1, 2]

    def test_fractional_floats_rejected(self):
        with pytest.raises(GraphError):
            as_index_array([1.5])

    def test_scalar_rejected(self):
        with pytest.raises(GraphError):
            as_index_array(5)

    def test_2d_rejected(self):
        with pytest.raises(GraphError):
            as_index_array([[1, 2]])

    def test_bool_rejected(self):
        with pytest.raises(GraphError):
            as_index_array([True, False])

    def test_string_rejected(self):
        with pytest.raises(GraphError):
            as_index_array(["a"])

    def test_uint_accepted(self):
        out = as_index_array(np.array([1, 2], dtype=np.uint32))
        assert out.dtype == np.int64

    def test_empty_ok(self):
        assert as_index_array([]).size == 0


class TestCheckVertexIds:
    def test_in_range(self):
        assert check_vertex_ids([0, 4], 5).tolist() == [0, 4]

    def test_too_large(self):
        with pytest.raises(VertexError, match="out of range"):
            check_vertex_ids([5], 5)

    def test_negative(self):
        with pytest.raises(VertexError):
            check_vertex_ids([-1], 5)

    def test_empty(self):
        assert check_vertex_ids([], 5).size == 0


class TestCheckSameLength:
    def test_equal(self):
        a = np.zeros(3)
        assert check_same_length([("a", a), ("b", a)]) == 3

    def test_mismatch(self):
        with pytest.raises(GraphError, match="length mismatch"):
            check_same_length([("a", np.zeros(3)), ("b", np.zeros(4))])

    def test_empty_iterable(self):
        assert check_same_length([]) == 0


class TestCheckOpCodes:
    def test_valid_codes_become_int8(self):
        out = check_op_codes([1, -1, 1])
        assert out.dtype == np.int8 and out.tolist() == [1, -1, 1]
        assert check_op_codes([]).size == 0

    @pytest.mark.parametrize("bad", [0, 2, 257, -255])
    def test_anything_else_is_rejected_before_the_cast(self, bad):
        with pytest.raises(GraphError, match=f"update code {bad} "):
            check_op_codes([1, bad, -1])

    def test_not_one_dimensional(self):
        with pytest.raises(GraphError, match="1-D"):
            check_op_codes(1)


class TestScalarChecks:
    def test_probability(self):
        assert check_probability(0.5, "p") == 0.5
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.1, "p")
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")
