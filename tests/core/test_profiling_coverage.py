"""Tests for the conditions retention profiling runs under: the
temperature-scaled retention model and the DDR4 timing preset."""

import pytest

from repro.dram.retention import bit_error_rate
from repro.dram.timing import TimingParameters
from repro.errors import ConfigError


class TestTemperatureScaledRetention:
    def test_anchor_temperature_unchanged(self):
        assert bit_error_rate(256.0, temperature_c=85.0) == pytest.approx(
            4e-9
        )

    def test_cooler_chip_fails_less(self):
        assert bit_error_rate(256.0, temperature_c=55.0) < bit_error_rate(
            256.0, temperature_c=85.0
        )

    def test_ten_degrees_equals_interval_doubling(self):
        """Retention halves per +10 C: +10 C at interval T equals the
        anchor temperature at interval 2T."""
        hot = bit_error_rate(128.0, temperature_c=95.0)
        doubled = bit_error_rate(256.0, temperature_c=85.0)
        assert hot == pytest.approx(doubled, rel=1e-9)

    def test_monotone_in_temperature(self):
        values = [
            bit_error_rate(128.0, temperature_c=t) for t in (45, 55, 65, 75, 85)
        ]
        assert values == sorted(values)


class TestDdr4Preset:
    def test_distinct_from_lpddr4(self):
        ddr4 = TimingParameters.ddr4()
        lp = TimingParameters.lpddr4()
        assert ddr4.clock_mhz != lp.clock_mhz
        assert ddr4.tbl == 4     # BL8 on a x64 channel

    def test_sixty_four_ms_window(self):
        ddr4 = TimingParameters.ddr4()
        assert ddr4.refresh_window_ms == 64.0
        assert ddr4.trefi == pytest.approx(
            64e-3 * ddr4.clock_mhz * 1e6 / 8192, rel=0.01
        )

    def test_crow_timings_derive_on_ddr4(self):
        from repro.dram import CrowTimings

        ddr4 = TimingParameters.ddr4()
        crow = CrowTimings.from_factors(ddr4)
        assert crow.trcd_act_t_full < ddr4.trcd
        assert crow.tras_act_c_full > ddr4.tras

    def test_unknown_density_rejected(self):
        with pytest.raises(ConfigError):
            TimingParameters.ddr4(density_gbit=128)
