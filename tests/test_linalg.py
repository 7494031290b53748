"""Tests of the array rule every module applies to what a caller hands in
(`linalg._as_matrix`)."""

import numpy as np
import pytest

from linkanom.linalg import _as_matrix


class TestInputDtypes:
    """Only bool, integer and real matrices are cast to float: complex
    input would lose its imaginary part, and text or objects be parsed."""

    @pytest.mark.parametrize("b", [
        pytest.param(np.array([[1 + 1j, 2], [3, 4]]), id="complex"),
        pytest.param([["1", "2"], ["3", "4"]], id="text"),
        pytest.param(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=object), id="object"),
    ])
    def test_rejected_before_the_cast(self, b):
        with pytest.raises(ValueError, match=r"^b must hold real numbers, got dtype "):
            _as_matrix(b, "b")

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.int64, np.float32, np.float64])
    def test_bool_integer_and_real_accepted(self, dtype):
        b = _as_matrix(np.array([[1, 0], [0, 1]], dtype=dtype), "b")
        assert b.dtype == np.float64
        np.testing.assert_array_equal(b, np.eye(2))
