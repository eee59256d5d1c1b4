"""Tests for the Eq. 1-4 analytics."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    crow_table_entry_bits,
    crow_table_storage_bits,
    crow_table_storage_kib,
    p_subarray_exceeds,
    p_weak_row,
)
from repro.errors import ConfigError

#: The paper's Section 4.2.1 worked example.
BER = 4e-9
CELLS_PER_ROW = 8 * 1024 * 8  # 8 KiB rows


class TestEq1WeakRowProbability:
    def test_paper_example(self):
        """BER 4e-9 over a 64-Kbit row -> P_weak_row ~ 2.6e-4."""
        p = p_weak_row(BER, CELLS_PER_ROW)
        assert p == pytest.approx(1 - (1 - BER) ** CELLS_PER_ROW)
        assert 1e-4 < p < 1e-3

    def test_zero_ber(self):
        assert p_weak_row(0.0, CELLS_PER_ROW) == 0.0

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigError):
            p_weak_row(1.5, 100)

    @given(st.floats(min_value=0.0, max_value=1e-6))
    def test_monotonic_in_ber(self, ber):
        assert p_weak_row(ber + 1e-7, CELLS_PER_ROW) >= p_weak_row(
            ber, CELLS_PER_ROW
        )


class TestEq2SubarrayProbability:
    def test_paper_values(self):
        """Section 4.2.1: P(subarray has more than 1/2/4/8 weak rows)
        = 0.99 / 3.1e-1 / 3.3e-4 / 3.3e-11.

        (The paper's n=1 value of 0.99 is the probability that *any* of
        the chip's 1024 subarrays exceeds one weak row; per-subarray
        values are tiny, so we verify via the chip-level aggregation.)"""
        p_row = p_weak_row(BER, CELLS_PER_ROW)
        subarrays = 1024
        chip = [
            1.0 - (1.0 - p_subarray_exceeds(n, 512, p_row)) ** subarrays
            for n in (1, 2, 4, 8)
        ]
        assert chip[0] == pytest.approx(0.99, abs=0.3)
        assert chip[1] == pytest.approx(3.1e-1, rel=0.5)
        assert chip[2] == pytest.approx(3.3e-4, rel=0.6)
        assert chip[3] == pytest.approx(3.3e-11, rel=0.9)

    def test_monotonically_decreasing_in_n(self):
        p_row = p_weak_row(BER, CELLS_PER_ROW)
        values = [p_subarray_exceeds(n, 512, p_row) for n in range(9)]
        assert values == sorted(values, reverse=True)

    def test_n_zero_is_any_weak_row(self):
        p_row = 0.01
        expected = 1.0 - (1.0 - p_row) ** 512
        assert p_subarray_exceeds(0, 512, p_row) == pytest.approx(expected)

    def test_rejects_negative_n(self):
        with pytest.raises(ConfigError):
            p_subarray_exceeds(-1, 512, 0.1)


class TestEq34TableStorage:
    def test_entry_bits_paper_config(self):
        """512 regular rows -> 9-bit pointer + special + allocated = 11."""
        assert crow_table_entry_bits(512, special_bits=1) == 11

    def test_storage_bits_paper_config(self):
        assert crow_table_storage_bits(512, 8, 1024) == 11 * 8 * 1024

    def test_storage_kib_close_to_paper(self):
        """Paper: ~11.3 KB (decimal) = 11.0 KiB for one channel."""
        assert crow_table_storage_kib() == pytest.approx(11.0, abs=0.01)

    def test_more_special_bits_grow_entry(self):
        assert crow_table_entry_bits(512, 2) == 12

    def test_rejects_tiny_subarray(self):
        with pytest.raises(ConfigError):
            crow_table_entry_bits(1)
