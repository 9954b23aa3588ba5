"""Tests for polynomial digit decomposition and weight windowing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv.decompose import (
    digit_compose,
    digit_count,
    digit_decompose,
)


class TestDigitCount:
    def test_exact_fit(self):
        assert digit_count((1 << 20) - 1, 10) == 2

    def test_rounds_up(self):
        assert digit_count((1 << 21) - 1, 10) == 3

    def test_minimum_one(self):
        assert digit_count(1, 30) == 1


class TestDecomposeCompose:
    def test_roundtrip(self):
        values = np.array([0, 1, 12345, (1 << 29) + 7], dtype=object)
        digits = digit_decompose(values, 10, 3)
        assert np.array_equal(digit_compose(digits, 10), values)

    def test_digit_bounds(self):
        values = np.array([(1 << 30) - 1], dtype=object)
        for digit in digit_decompose(values, 10, 3):
            assert 0 <= int(digit[0]) < (1 << 10)

    def test_overflow_detected(self):
        values = np.array([1 << 31], dtype=object)
        with pytest.raises(ValueError):
            digit_decompose(values, 10, 3)

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 59)), min_size=1, max_size=6),
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, values, base_bits):
        array = np.array(values, dtype=object)
        count = digit_count(1 << 60, base_bits)
        digits = digit_decompose(array, base_bits, count)
        assert np.array_equal(digit_compose(digits, base_bits), array)
        for digit in digits:
            assert all(0 <= int(d) < (1 << base_bits) for d in digit)
