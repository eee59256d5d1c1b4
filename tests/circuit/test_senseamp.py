"""Unit tests for sense-amplifier development and restoration dynamics."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit import SenseAmpModel
from repro.errors import ConfigError


@pytest.fixture
def amp() -> SenseAmpModel:
    return SenseAmpModel()


class TestSensing:
    def test_baseline_matches_lpddr4_trcd(self, amp):
        """Single-row sensing completes within ~5% of the 18 ns anchor."""
        trcd = amp.sensing_complete_ns(1)
        assert trcd == pytest.approx(amp.tech.trcd_ns, rel=0.05)

    def test_two_rows_sense_faster(self, amp):
        assert amp.sensing_complete_ns(2) < amp.sensing_complete_ns(1)

    def test_partial_charge_senses_slower(self, amp):
        full = amp.sensing_complete_ns(2, amp.tech.full_restore_fraction)
        partial = amp.sensing_complete_ns(2, 0.9)
        assert partial > full

    def test_zero_delta_v_rejected(self, amp):
        with pytest.raises(ConfigError):
            amp.development_time_ns(0.0)

    @given(n=st.integers(min_value=1, max_value=9))
    def test_sensing_monotonic_in_rows(self, n):
        amp = SenseAmpModel()
        assert amp.sensing_complete_ns(n + 1) < amp.sensing_complete_ns(n)


class TestRestoration:
    def test_baseline_tras_anchor(self, amp):
        """Sensing + full restoration lands within ~5% of tRAS = 42 ns."""
        tras = amp.sensing_complete_ns(1) + amp.restoration_time_ns(
            1, amp.tech.full_restore_fraction
        )
        assert tras == pytest.approx(amp.tech.tras_ns, rel=0.05)

    def test_more_cells_restore_slower(self, amp):
        full = amp.tech.full_restore_fraction
        assert amp.restoration_time_ns(2, full) > amp.restoration_time_ns(1, full)

    def test_partial_target_restores_faster(self, amp):
        assert amp.restoration_time_ns(2, 0.9) < amp.restoration_time_ns(2, 0.975)

    def test_restoring_to_rail_rejected(self, amp):
        with pytest.raises(ConfigError):
            amp.restoration_time_ns(1, 1.0)

    def test_target_below_shared_voltage_needs_no_time(self, amp):
        """Charge sharing leaves the cell near ~0.58 VDD; a target below
        that point requires no restoration work at all."""
        assert amp.restoration_time_ns(1, 0.52, start_fraction=0.97) == 0.0

    def test_lower_start_restores_longer(self, amp):
        target = amp.tech.full_restore_fraction
        from_low = amp.restoration_time_ns(2, target, start_fraction=0.85)
        from_high = amp.restoration_time_ns(2, target, start_fraction=0.95)
        assert from_low > from_high

    def test_tau_grows_linearly_with_cells(self, amp):
        tau1 = amp.restoration_tau_ns(1)
        tau2 = amp.restoration_tau_ns(2)
        tau3 = amp.restoration_tau_ns(3)
        assert tau3 - tau2 == pytest.approx(tau2 - tau1, rel=1e-9)


class TestWrite:
    def test_baseline_twr_anchor_is_exact(self, amp):
        """A conventional full-restore write takes exactly tWR."""
        twr = amp.write_time_ns(1, amp.tech.full_restore_fraction)
        assert twr == pytest.approx(amp.tech.twr_ns, rel=1e-9)

    def test_two_cell_write_is_slower(self, amp):
        full = amp.tech.full_restore_fraction
        assert amp.write_time_ns(2, full) > amp.write_time_ns(1, full)

    def test_early_terminated_write_is_faster_than_baseline(self, amp):
        """The paper's tWR -13% point: partial-restore two-cell writes
        complete faster than conventional single-cell writes."""
        assert amp.write_time_ns(2, 0.91) < amp.tech.twr_ns

    def test_invalid_target_rejected(self, amp):
        with pytest.raises(ConfigError):
            amp.write_time_ns(1, 0.4)
        with pytest.raises(ConfigError):
            amp.write_time_ns(1, 1.0)
