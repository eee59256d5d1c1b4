"""Tests for the conditions retention profiling runs under: the
temperature-scaled retention model."""

import pytest

from repro.dram.retention import bit_error_rate


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
