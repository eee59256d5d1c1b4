"""Tests for the MRA power and decoder-area models (Figure 7, Figure 11b)."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit import DecoderAreaModel, activation_power_overhead
from repro.errors import ConfigError


class TestActivationPower:
    def test_single_row_has_no_overhead(self):
        assert activation_power_overhead(1) == pytest.approx(1.0)

    def test_two_row_overhead_matches_paper(self):
        """Paper Section 6.2: ACT-t/ACT-c consume 5.8% more power."""
        assert activation_power_overhead(2) == pytest.approx(1.058)

    def test_overhead_grows_with_rows(self):
        values = [activation_power_overhead(n) for n in range(1, 10)]
        assert values == sorted(values)

    def test_rejects_zero_rows(self):
        with pytest.raises(ConfigError):
            activation_power_overhead(0)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ConfigError):
            activation_power_overhead(2, per_row_overhead=-0.1)

    @given(n=st.integers(min_value=1, max_value=64))
    def test_overhead_at_least_unity(self, n):
        assert activation_power_overhead(n) >= 1.0


class TestDecoderArea:
    @pytest.fixture
    def area(self) -> DecoderAreaModel:
        return DecoderAreaModel()

    def test_local_decoder_anchor(self, area):
        """512-row local decoder occupies ~200.9 um^2 (paper Section 6.2)."""
        assert area.decoder_area_um2(512) == pytest.approx(200.9, rel=0.01)

    def test_copy_decoder_anchor(self, area):
        """8-copy-row decoder occupies ~9.6 um^2 (paper Section 6.2)."""
        assert area.decoder_area_um2(8) == pytest.approx(9.6, rel=0.01)

    def test_crow8_decoder_overhead(self, area):
        assert area.copy_decoder_overhead(8) == pytest.approx(0.048, abs=0.002)

    def test_crow8_chip_overhead(self, area):
        """Paper headline: 0.48% DRAM chip area overhead for CROW-8."""
        assert area.crow_chip_overhead(8) == pytest.approx(0.0048, abs=0.0002)

    def test_crow8_capacity_overhead(self, area):
        """Paper headline: eight copy rows reserve 1.6% of capacity."""
        assert area.crow_capacity_overhead(8) == pytest.approx(0.0154, abs=0.001)

    def test_area_grows_with_copy_rows(self, area):
        overheads = [area.crow_chip_overhead(n) for n in (1, 2, 4, 8, 16, 256)]
        assert overheads == sorted(overheads)

    def test_rejects_zero_rows(self, area):
        with pytest.raises(ConfigError):
            area.decoder_area_um2(0)


class TestBaselineAreas:
    @pytest.fixture
    def area(self) -> DecoderAreaModel:
        return DecoderAreaModel()

    def test_tldram8_matches_paper(self, area):
        """Figure 11b: TL-DRAM-8 incurs 6.9% chip area overhead."""
        assert area.tldram_chip_overhead(8) == pytest.approx(0.069, abs=0.003)

    def test_tldram_much_more_expensive_than_crow(self, area):
        assert area.tldram_chip_overhead(8) > 10 * area.crow_chip_overhead(8)

    def test_salp_128_matches_paper(self, area):
        """Figure 11b: SALP-128 is ~0.6% (logic only, no extra stripes)."""
        assert area.salp_chip_overhead(128) == pytest.approx(0.006, abs=0.002)

    def test_salp_256_matches_paper(self, area):
        """Figure 11b: SALP-256 costs 28.9% (doubled sense-amp stripes)."""
        assert area.salp_chip_overhead(256) == pytest.approx(0.289, abs=0.01)

    def test_salp_512_matches_paper(self, area):
        """Section 8.1.4: SALP-512 costs 84.5% chip area."""
        assert area.salp_chip_overhead(512) == pytest.approx(0.845, abs=0.02)

    def test_salp_requires_power_of_two(self, area):
        with pytest.raises(ConfigError):
            area.salp_chip_overhead(100)


class TestStructuredGuardErrors:
    """Guard failures name the offending field and value.

    Callers surface these messages verbatim, so they must identify what
    was wrong without the caller re-deriving it.
    """

    @pytest.fixture
    def area(self) -> DecoderAreaModel:
        return DecoderAreaModel()

    def test_negative_copy_rows_names_field_and_value(self, area):
        with pytest.raises(
            ConfigError, match=r"copy_rows must be >= 0, got -3"
        ):
            area.crow_capacity_overhead(-3)

    def test_zero_regular_rows_explains_the_constraint(self, area):
        with pytest.raises(
            ConfigError, match=r"regular_rows must be >= 1, got 0"
        ):
            area.crow_capacity_overhead(8, regular_rows=0)

    def test_zero_copy_rows_is_a_valid_degenerate_substrate(self, area):
        assert area.crow_capacity_overhead(0) == 0.0

    def test_zero_copy_rows_need_no_copy_row_decoder(self, area):
        assert area.copy_decoder_overhead(0) == 0.0
        assert area.crow_chip_overhead(0) == 0.0

    def test_negative_copy_rows_decoder_names_field_and_value(self, area):
        with pytest.raises(
            ConfigError, match=r"copy_rows must be >= 0, got -1"
        ):
            area.copy_decoder_overhead(-1)
        with pytest.raises(
            ConfigError, match=r"copy_rows must be >= 0, got -1"
        ):
            area.crow_chip_overhead(-1)

    def test_non_power_of_two_salp_names_the_value(self, area):
        with pytest.raises(
            ConfigError, match=r"power of two, got 100"
        ):
            area.salp_chip_overhead(100)

    def test_zero_subarrays_names_field_and_value(self, area):
        with pytest.raises(
            ConfigError, match=r"subarrays_per_bank must be >= 1, got 0"
        ):
            area.salp_chip_overhead(0)

    def test_zero_decoder_rows_names_the_value(self, area):
        with pytest.raises(ConfigError, match=r"rows must be >= 1, got 0"):
            area.decoder_area_um2(0)
