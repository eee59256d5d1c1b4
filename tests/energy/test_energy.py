"""Tests for the IDD current set and the energy model."""

import json
from pathlib import Path

import pytest

from repro.circuit import DecoderAreaModel, activation_power_overhead
from repro.dram import DramGeometry, DramChannel, TimingParameters
from repro.dram.commands import Command, CommandKind, RowId
from repro.energy import ChannelActivity, EnergyModel, IddCurrents
from repro.errors import ConfigError

TIMING = TimingParameters.lpddr4()

#: Energy coefficients and CROW area overheads for three configs, as
#: plain values so a failure names the coefficient that moved.
EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "data"
     / "expected_estimates.json").read_text()
)


def activity(**kwargs) -> ChannelActivity:
    defaults = dict(
        n_act=0, n_act_t=0, n_act_c=0, n_rd=0, n_wr=0, n_ref=0,
        open_buffer_cycles=0, total_cycles=100_000,
    )
    defaults.update(kwargs)
    return ChannelActivity(**defaults)


class TestIddCurrents:
    def test_open_bank_overhead_matches_datasheet_quote(self):
        """Paper Section 8.1.4: IDD3N is 10.9% above IDD2N."""
        i = IddCurrents.lpddr4()
        assert i.idd3n / i.idd2n == pytest.approx(1.109, abs=0.002)

    def test_refresh_current_grows_with_density(self):
        values = [IddCurrents.lpddr4(d).idd5 for d in (8, 16, 32, 64)]
        assert values == sorted(values) and values[0] < values[-1]

    def test_rejects_unknown_density(self):
        with pytest.raises(ConfigError):
            IddCurrents.lpddr4(density_gbit=4)

    def test_rejects_inverted_standby(self):
        with pytest.raises(ConfigError):
            IddCurrents(idd2n=40.0, idd3n=30.0)


class TestEnergyModel:
    @pytest.fixture
    def model(self) -> EnergyModel:
        return EnergyModel(TIMING)

    def test_mra_activation_costs_more(self, model):
        plain = model.breakdown(activity(n_act=100))
        mra = model.breakdown(activity(n_act_t=100))
        assert mra.activation_nj == pytest.approx(
            plain.activation_nj * 1.058, rel=1e-6
        )

    def test_background_scales_with_time(self, model):
        short = model.breakdown(activity(total_cycles=10_000))
        long = model.breakdown(activity(total_cycles=20_000))
        assert long.background_nj == pytest.approx(2 * short.background_nj)

    def test_open_buffers_add_static_power(self, model):
        closed = model.breakdown(activity())
        open_ = model.breakdown(activity(open_buffer_cycles=100_000))
        assert open_.background_nj > closed.background_nj
        # The increment matches the IDD3N/IDD2N ratio when one buffer is
        # open the whole time.
        assert open_.background_nj / closed.background_nj == pytest.approx(
            1.109, abs=0.002
        )

    def test_refresh_energy_grows_with_density(self):
        low = EnergyModel(
            TimingParameters.lpddr4(density_gbit=8), IddCurrents.lpddr4(8)
        ).ref_energy_nj
        high = EnergyModel(
            TimingParameters.lpddr4(density_gbit=64), IddCurrents.lpddr4(64)
        ).ref_energy_nj
        assert high > 5 * low

    def test_refresh_can_reach_half_of_idle_energy_at_64gbit(self):
        """Section 1: refresh consumes up to ~50% of DRAM energy in
        high-density idle systems."""
        timing = TimingParameters.lpddr4(density_gbit=64)
        model = EnergyModel(timing, IddCurrents.lpddr4(64))
        refs_per_window = 8192
        window_cycles = timing.trefi * refs_per_window
        idle = model.breakdown(
            activity(n_ref=refs_per_window, total_cycles=window_cycles)
        )
        share = idle.refresh_nj / idle.total_nj
        assert 0.35 < share < 0.6

    def test_breakdown_addition(self, model):
        a = model.breakdown(activity(n_act=10))
        b = model.breakdown(activity(n_rd=10))
        combined = a + b
        assert combined.total_nj == pytest.approx(a.total_nj + b.total_nj)

    def test_from_channel_collects_counts(self):
        geo = DramGeometry()
        channel = DramChannel(geo, TIMING)
        channel.issue(
            Command(CommandKind.ACT, bank=0, rows=(RowId.regular(5, 512),)), 0
        )
        act = ChannelActivity.from_channel(channel, total_cycles=1000, now=500)
        assert act.n_act == 1
        assert act.open_buffer_cycles == 500


class TestBreakdownFiniteness:
    """NaN/inf joule counts die at construction, not in downstream math.

    Both producing a breakdown with a non-finite component and combining
    two breakdowns whose sum overflows must raise, in both directions of
    the ``+``.
    """

    def test_construction_rejects_nan_naming_the_field(self):
        from repro.energy import EnergyBreakdown

        with pytest.raises(ConfigError, match="refresh_nj"):
            EnergyBreakdown(0.0, 0.0, 0.0, float("nan"), 0.0)

    def test_construction_rejects_inf_naming_the_field(self):
        from repro.energy import EnergyBreakdown

        with pytest.raises(ConfigError, match="activation_nj"):
            EnergyBreakdown(float("inf"), 0.0, 0.0, 0.0, 0.0)

    def test_addition_overflowing_to_inf_is_rejected_both_ways(self):
        from repro.energy import EnergyBreakdown

        huge = EnergyBreakdown(1e308, 0.0, 0.0, 0.0, 0.0)
        small = EnergyBreakdown(1e308, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError, match="activation_nj"):
            huge + small
        with pytest.raises(ConfigError, match="activation_nj"):
            small + huge

    def test_coefficient_set_rejects_non_finite_fields(self):
        from dataclasses import replace

        from repro.energy import EnergyModel

        coefficients = EnergyModel(TIMING, IddCurrents.lpddr4()).coefficients()
        with pytest.raises(ConfigError, match="act_nj"):
            replace(coefficients, act_nj=float("nan"))


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_models_match_committed_values(case):
    expected = EXPECTED[case]
    density = expected["density_gbit"]
    copy_rows = expected["copy_rows"]
    model = EnergyModel(
        TimingParameters.lpddr4(density_gbit=density),
        IddCurrents.lpddr4(density),
    )
    coefficients = model.coefficients().as_mapping()
    assert coefficients == expected["energy_coefficients"]
    area = DecoderAreaModel()
    assert {
        "decoder_area_um2": area.decoder_area_um2(copy_rows),
        "decoder_overhead": area.copy_decoder_overhead(copy_rows),
        "chip_overhead": area.crow_chip_overhead(copy_rows),
        "capacity_overhead": area.crow_capacity_overhead(copy_rows),
    } == expected["crow_overheads"]
    # Figure 7 linkage: ACT-t/ACT-c energy uses the two-row activation
    # power of the circuit model.
    assert expected["activation_power_2rows"] == 1.058
    assert (
        coefficients["mra_overhead"]
        == activation_power_overhead(2)
        == expected["activation_power_2rows"]
    )


def test_mra_overhead_attribute_reaches_the_model():
    model = EnergyModel(
        TimingParameters.lpddr4(8), IddCurrents.lpddr4(8), 1.3
    )
    # The model folds the extra fraction into a 1 + overhead multiplier.
    assert model.coefficients().mra_overhead == 1.0 + 1.3
