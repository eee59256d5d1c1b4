"""Unit and property tests for the bitline charge-sharing model."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit import BitlineModel, TechnologyParameters
from repro.errors import ConfigError


@pytest.fixture
def bitline() -> BitlineModel:
    return BitlineModel()


class TestDeltaV:
    def test_single_cell_swing_is_realistic(self, bitline):
        """A single fully-charged cell perturbs the bitline by ~100 mV."""
        delta = bitline.delta_v(1, 1.0)
        assert 0.05 < delta < 0.15

    def test_two_cells_increase_swing(self, bitline):
        assert bitline.delta_v(2, 1.0) > bitline.delta_v(1, 1.0)

    def test_swing_saturates_below_half_vdd(self, bitline):
        """Even infinitely many cells cannot push past Vdd/2 swing."""
        assert bitline.delta_v(1000, 1.0) < bitline.tech.vdd_volts / 2.0

    def test_half_charged_cell_produces_no_swing(self, bitline):
        assert bitline.delta_v(1, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_discharged_cell_produces_negative_swing(self, bitline):
        assert bitline.delta_v(1, 0.0) < 0.0

    def test_zero_cells_rejected(self, bitline):
        with pytest.raises(ConfigError):
            bitline.delta_v(0, 1.0)

    @given(n=st.integers(min_value=1, max_value=32))
    def test_swing_monotonic_in_cell_count(self, n):
        bitline = BitlineModel()
        assert bitline.delta_v(n + 1, 1.0) > bitline.delta_v(n, 1.0)

    @given(
        f_low=st.floats(min_value=0.55, max_value=0.9),
        gap=st.floats(min_value=0.01, max_value=0.1),
    )
    def test_swing_monotonic_in_charge(self, f_low, gap):
        bitline = BitlineModel()
        assert bitline.delta_v(2, f_low + gap) > bitline.delta_v(2, f_low)


class TestSensibility:
    def test_full_cell_is_sensible(self, bitline):
        assert bitline.sensible(1, 1.0)

    def test_nearly_drained_cell_is_not_sensible(self, bitline):
        assert not bitline.sensible(1, 0.55)

    def test_minimum_fraction_is_boundary(self, bitline):
        f_min = bitline.minimum_cell_fraction(1)
        delta_at_min = bitline.delta_v(1, f_min)
        assert delta_at_min == pytest.approx(bitline.tech.sense_threshold_v)

    def test_two_cells_lower_the_charge_floor(self, bitline):
        """Duplicated data remains sensible at lower per-cell charge."""
        assert bitline.minimum_cell_fraction(2) < bitline.minimum_cell_fraction(1)


class TestRetention:
    def test_single_full_cell_retains_for_base_window(self, bitline):
        retention = bitline.retention_time_ms(1, bitline.tech.full_restore_fraction)
        assert retention == pytest.approx(bitline.tech.retention_base_ms, rel=1e-6)

    def test_two_full_cells_retain_longer(self, bitline):
        single = bitline.retention_time_ms(1, bitline.tech.full_restore_fraction)
        double = bitline.retention_time_ms(2, bitline.tech.full_restore_fraction)
        assert double > single

    def test_partially_restored_pair_still_meets_window(self, bitline):
        """The paper's key enabler for early restoration termination:
        two cells at ~92% charge retain data past the 64 ms window."""
        retention = bitline.retention_time_ms(2, 0.92)
        assert retention >= bitline.tech.retention_base_ms

    def test_drained_cell_has_zero_retention(self, bitline):
        assert bitline.retention_time_ms(1, 0.55) == 0.0

    @given(f=st.floats(min_value=0.8, max_value=0.975))
    def test_retention_monotonic_in_charge(self, f):
        bitline = BitlineModel()
        assert bitline.retention_time_ms(2, f + 0.02) > bitline.retention_time_ms(2, f)


class TestTechnologyParameters:
    def test_defaults_validate(self):
        TechnologyParameters()

    def test_rejects_negative_capacitance(self):
        with pytest.raises(ConfigError):
            TechnologyParameters(cell_capacitance_ff=-1.0)

    def test_rejects_bad_restore_fraction(self):
        with pytest.raises(ConfigError):
            TechnologyParameters(full_restore_fraction=0.3)

    def test_capacitance_ratio(self):
        tech = TechnologyParameters(
            cell_capacitance_ff=20.0, bitline_capacitance_ff=100.0
        )
        assert tech.capacitance_ratio == pytest.approx(0.2)
