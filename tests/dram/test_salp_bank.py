"""Tests for the SALP bank state machine and its energy residency split."""

import pytest

from repro.dram import DramChannel, DramGeometry, TimingParameters
from repro.dram.commands import Command, CommandKind, RowId
from repro.errors import ProtocolError

GEO = DramGeometry(rows_per_bank=4096, channels=1)
TIMING = TimingParameters.lpddr4()


def act(row: int, bank: int = 0) -> Command:
    return Command(CommandKind.ACT, bank=bank, rows=(RowId.regular(row, 512),))


def make_channel() -> DramChannel:
    return DramChannel(GEO, TIMING, salp_subarrays=GEO.subarrays_per_bank)


class TestSubarrayIndependence:
    def test_two_subarrays_open_simultaneously(self):
        channel = make_channel()
        channel.issue(act(0), 0)                       # subarray 0
        t = channel.earliest_issue(act(600))           # subarray 1
        channel.issue(act(600), t)
        bank = channel.banks[0]
        assert bank.open_buffer_count == 2
        assert bank.has_open_row(RowId.regular(0, 512))
        assert bank.has_open_row(RowId.regular(600, 512))

    def test_same_subarray_still_conflicts(self):
        channel = make_channel()
        channel.issue(act(0), 0)
        with pytest.raises(ProtocolError):
            channel.earliest_issue(act(1))     # same subarray: must PRE first

    def test_per_subarray_precharge(self):
        channel = make_channel()
        channel.issue(act(0), 0)
        channel.issue(act(600), channel.earliest_issue(act(600)))
        pre = Command(CommandKind.PRE, bank=0, subarray=0)
        channel.issue(pre, channel.earliest_issue(pre))
        bank = channel.banks[0]
        assert bank.open_buffer_count == 1
        assert not bank.has_open_row(RowId.regular(0, 512))

    def test_salp_pre_requires_subarray(self):
        channel = make_channel()
        channel.issue(act(0), 0)
        with pytest.raises(ProtocolError):
            channel.earliest_issue(Command(CommandKind.PRE, bank=0))

    def test_column_access_needs_subarray(self):
        channel = make_channel()
        channel.issue(act(0), 0)
        with pytest.raises(ProtocolError):
            channel.earliest_issue(Command(CommandKind.RD, bank=0, col=0))
        rd = Command(CommandKind.RD, bank=0, col=0, subarray=0)
        assert channel.earliest_issue(rd) == TIMING.trcd


class TestEnergyResidency:
    def test_extra_buffers_counted_separately(self):
        channel = make_channel()
        channel.issue(act(0), 0)
        t = channel.earliest_issue(act(600))
        channel.issue(act(600), t)
        now = 1000
        open_cycles = channel.open_buffer_cycles(now)
        active_cycles = channel.bank_active_cycles(now)
        # Two buffers accumulate ~2x the open residency, but the bank was
        # active only once over the interval.
        assert open_cycles == (now - 0) + (now - t)
        assert active_cycles == now

    def test_bank_active_epoch_closes_on_last_pre(self):
        channel = make_channel()
        channel.issue(act(0), 0)
        pre = Command(CommandKind.PRE, bank=0, subarray=0)
        t_pre = channel.earliest_issue(pre)
        channel.issue(pre, t_pre)
        later = t_pre + 500
        assert channel.bank_active_cycles(later) == t_pre

    def test_conventional_channel_active_equals_open(self):
        channel = DramChannel(GEO, TIMING)
        channel.issue(act(0), 0)
        assert channel.open_buffer_cycles(400) == channel.bank_active_cycles(400)

    def test_refresh_requires_all_subarrays_closed(self):
        channel = make_channel()
        channel.issue(act(0), 0)
        with pytest.raises(ProtocolError):
            channel.earliest_issue(Command(CommandKind.REF))
