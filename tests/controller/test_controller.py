"""Tests for the per-channel memory controller."""

import pytest

from repro.controller import (
    ChannelController,
    ControllerConfig,
    MemRequest,
    RequestType,
)
from repro.dram import AddressMapper, DramChannel, DramGeometry, TimingParameters
from repro.dram.commands import CommandKind
from repro.errors import ConfigError

GEO = DramGeometry()
TIMING = TimingParameters.lpddr4()
MAPPER = AddressMapper(GEO)


def make_controller(refresh=False, **config_kwargs):
    channel = DramChannel(GEO, TIMING)
    controller = ChannelController(
        channel,
        config=ControllerConfig(**config_kwargs),
        refresh_enabled=refresh,
    )
    return controller, channel


def make_request(address, type=RequestType.READ, callback=None):
    return MemRequest(type, address, MAPPER.decode(address), callback=callback)


def channel0_address(row: int, col: int = 0, bank: int = 0) -> int:
    """Physical address on channel 0 with the given coordinates."""
    from repro.dram.address import DramAddress

    return MAPPER.encode(DramAddress(channel=0, rank=0, bank=bank, row=row, col=col))


def run_until_drained(controller, limit=500_000):
    now = 0
    while controller.pending_requests and now < limit:
        now = max(controller.tick(now), now + 1)
    assert controller.pending_requests == 0, "controller failed to drain"
    return now


class TestBasicService:
    def test_single_read_latency(self):
        controller, channel = make_controller()
        finished = []
        request = make_request(
            channel0_address(row=7), callback=lambda r, t: finished.append(t)
        )
        controller.enqueue(request, 0)
        run_until_drained(controller)
        assert finished
        # ACT at ~0, RD at tRCD, data at tRCD + tCL + tBL.
        assert finished[0] == TIMING.trcd + TIMING.tcl + TIMING.tbl

    def test_row_hit_second_read_is_faster(self):
        controller, channel = make_controller()
        times = []
        for col in (0, 1):
            controller.enqueue(
                make_request(
                    channel0_address(row=7, col=col),
                    callback=lambda r, t: times.append(t),
                ),
                0,
            )
        run_until_drained(controller)
        first, second = sorted(times)
        assert second - first == TIMING.tccd  # pure column access spacing

    def test_writes_complete(self):
        controller, channel = make_controller()
        done = []
        controller.enqueue(
            make_request(
                channel0_address(row=3),
                type=RequestType.WRITE,
                callback=lambda r, t: done.append(t),
            ),
            0,
        )
        run_until_drained(controller)
        assert done and channel.counts[CommandKind.WR] == 1

    def test_row_conflict_closes_and_reopens(self):
        controller, channel = make_controller()
        controller.enqueue(make_request(channel0_address(row=1)), 0)
        controller.enqueue(make_request(channel0_address(row=2)), 0)
        run_until_drained(controller)
        assert channel.counts[CommandKind.ACT] == 2
        assert channel.counts[CommandKind.PRE] >= 1
        assert controller.stats["row_conflicts"] >= 1


class TestQueueing:
    def test_queue_capacity_enforced(self):
        controller, _ = make_controller(read_queue_size=2, write_drain_high=2,
                                        write_drain_low=1, write_queue_size=2)
        assert controller.enqueue(make_request(channel0_address(1)), 0)
        assert controller.enqueue(make_request(channel0_address(2)), 0)
        assert not controller.can_accept(RequestType.READ)
        assert not controller.enqueue(make_request(channel0_address(3)), 0)

    def test_write_forwarding_serves_read_from_write_queue(self):
        controller, channel = make_controller()
        address = channel0_address(row=9)
        controller.enqueue(make_request(address, type=RequestType.WRITE), 0)
        got = []
        controller.enqueue(
            make_request(address, callback=lambda r, t: got.append(t)), 0
        )
        assert got, "forwarded read completes immediately"
        assert controller.stats["forwarded_reads"] == 1
        # The read never touched the DRAM device.
        assert channel.counts[CommandKind.RD] == 0

    def test_write_drain_watermarks(self):
        controller, channel = make_controller(
            write_drain_high=4, write_drain_low=1
        )
        for i in range(4):
            controller.enqueue(
                make_request(channel0_address(row=i), type=RequestType.WRITE), 0
            )
        assert controller.drain_mode
        run_until_drained(controller)
        assert not controller.drain_mode
        assert channel.counts[CommandKind.WR] == 4

    def test_reads_prioritized_over_buffered_writes(self):
        controller, channel = make_controller()
        controller.enqueue(
            make_request(channel0_address(row=1), type=RequestType.WRITE), 0
        )
        controller.enqueue(make_request(channel0_address(row=2)), 0)
        controller.tick(0)   # activation goes to the read's row
        rows = channel.open_rows(0)
        assert rows is not None and rows[0].bank_row(512) == 2


class TestRowPolicy:
    def test_timeout_closes_idle_row(self):
        controller, channel = make_controller(row_timeout_ns=75.0)
        controller.enqueue(make_request(channel0_address(row=5)), 0)
        now = run_until_drained(controller)
        assert channel.open_rows(0) is not None
        # Keep ticking past the timeout.
        for _ in range(100):
            now = max(controller.tick(now), now + 1)
            if channel.open_rows(0) is None:
                break
        assert channel.open_rows(0) is None

    def test_open_page_policy_keeps_row_open(self):
        controller, channel = make_controller(row_timeout_ns=None)
        controller.enqueue(make_request(channel0_address(row=5)), 0)
        now = run_until_drained(controller)
        for _ in range(50):
            now = max(controller.tick(now), now + 1)
        assert channel.open_rows(0) is not None

    def test_pending_request_blocks_timeout(self):
        controller, channel = make_controller(row_timeout_ns=75.0)
        # Request to a second channel-0 bank keeps pressure on that bank
        # but must not cause bank 0's row to be closed prematurely while a
        # request to bank 0's open row is still queued behind timing.
        controller.enqueue(make_request(channel0_address(row=5, bank=0)), 0)
        run_until_drained(controller)
        controller.enqueue(make_request(channel0_address(row=5, bank=0, col=3)), 0)
        run_until_drained(controller)
        # Row stayed open across both requests: only one activation.
        assert channel.counts[CommandKind.ACT] == 1


class TestRefresh:
    def test_refresh_issued_every_trefi(self):
        controller, channel = make_controller(refresh=True)
        now = 0
        horizon = TIMING.trefi * 3 + TIMING.trfc
        while now < horizon:
            now = max(controller.tick(now), now + 1)
        assert channel.counts[CommandKind.REF] == 3

    def test_refresh_precharges_open_rows_first(self):
        controller, channel = make_controller(refresh=True)
        controller.enqueue(make_request(channel0_address(row=5)), 0)
        now = 0
        while now < TIMING.trefi + TIMING.trfc:
            now = max(controller.tick(now), now + 1)
        assert channel.counts[CommandKind.REF] == 1
        assert channel.counts[CommandKind.PRE] >= 1

    def test_disabled_refresh_never_fires(self):
        controller, channel = make_controller(refresh=False)
        now = 0
        while now < TIMING.trefi * 2:
            now = max(controller.tick(now), now + 1)
        assert channel.counts[CommandKind.REF] == 0


class TestConfigValidation:
    def test_rejects_bad_watermarks(self):
        with pytest.raises(ConfigError):
            ControllerConfig(write_drain_high=2, write_drain_low=5)

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), -float("inf"), 0.0, -10.0]
    )
    def test_rejects_bad_row_timeout(self, timeout):
        with pytest.raises(ConfigError, match="row_timeout_ns") as excinfo:
            ControllerConfig(row_timeout_ns=timeout)
        assert repr(timeout) in str(excinfo.value)

    def test_open_page_timeout_still_allowed(self):
        assert ControllerConfig(row_timeout_ns=None).row_timeout_ns is None

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_bad_fr_fcfs_cap(self, cap):
        with pytest.raises(ConfigError, match=f"fr_fcfs_cap.*{cap}"):
            ControllerConfig(fr_fcfs_cap=cap)

    def test_rejects_drain_above_queue(self):
        with pytest.raises(ConfigError):
            ControllerConfig(write_queue_size=8, write_drain_high=16)

    def test_rejects_zero_queues(self):
        with pytest.raises(ConfigError):
            ControllerConfig(read_queue_size=0)


class TestStatistics:
    def test_average_read_latency(self):
        # The counters telemetry's read_latency_avg ratio is built from.
        controller, _ = make_controller()
        controller.enqueue(make_request(channel0_address(row=1)), 0)
        run_until_drained(controller)
        assert controller.stats["reads_served"] == 1
        assert controller.stats["read_latency_sum"] > 0

    def test_row_hit_rate(self):
        # The counters telemetry's row_hit_rate ratio is built from.
        controller, _ = make_controller()
        for col in range(4):
            controller.enqueue(make_request(channel0_address(row=1, col=col)), 0)
        run_until_drained(controller)
        stats = controller.stats
        accesses = stats["row_hits"] + stats["row_misses"] + stats["row_conflicts"]
        assert stats["row_hits"] / accesses > 0.5
