"""tRRD/tFAW enforcement under an activation burst.

A 5-ACT burst (reads to five different banks enqueued simultaneously) is
the regression scenario for rank-scope activation pacing: the first four
ACTs are spaced by tRRD, and the fifth must additionally wait for the
sliding 4-ACT tFAW window to pass. The issued stream is asserted
directly AND cross-validated by the independent shadow checker; a
deliberately shaved copy of the same stream must be flagged.
"""

from dataclasses import replace

import pytest

from repro.check import ProtocolChecker
from repro.controller import ChannelController, ControllerConfig
from repro.dram import DramChannel, DramGeometry, TimingParameters
from repro.dram.commands import CommandKind
from repro.errors import ConformanceError

from tests.controller.test_controller import (
    channel0_address,
    make_request,
    run_until_drained,
)

GEO = DramGeometry()
#: Standard LPDDR4 has tFAW == 4*tRRD exactly, which makes the four-ACT
#: window a no-op; widen it so tFAW is the *binding* constraint on the
#: fifth ACT and the test distinguishes the two rules.
TIMING = TimingParameters.lpddr4()
BURST_TIMING = replace(TIMING, tfaw=TIMING.tfaw + 16)


def run_burst(banks=5):
    """Enqueue one read per bank at cycle 0; return the command log."""
    channel = DramChannel(GEO, BURST_TIMING)
    log = []
    channel.attach(lambda cycle, command: log.append((cycle, command)))
    controller = ChannelController(
        channel, config=ControllerConfig(), refresh_enabled=False
    )
    for bank in range(banks):
        controller.enqueue(
            make_request(channel0_address(row=3, bank=bank)), 0
        )
    run_until_drained(controller)
    return log


def act_times(log):
    return [
        cycle
        for cycle, command in log
        if command.kind is CommandKind.ACT
    ]


class TestFiveActBurst:
    def test_trrd_spacing_between_consecutive_acts(self):
        acts = act_times(run_burst())
        assert len(acts) == 5
        for earlier, later in zip(acts, acts[1:]):
            assert later - earlier >= BURST_TIMING.trrd

    def test_fifth_act_waits_for_tfaw(self):
        acts = act_times(run_burst())
        # Sliding window: ACT i vs ACT i-4.
        assert acts[4] - acts[0] >= BURST_TIMING.tfaw
        # And the wait is real: four tRRD gaps alone would finish sooner.
        assert 4 * BURST_TIMING.trrd < BURST_TIMING.tfaw

    def test_burst_is_scheduled_tightly(self):
        """The controller should not be pacing more than required:
        the first four ACTs go at tRRD cadence, the fifth at tFAW."""
        acts = act_times(run_burst())
        for i, (earlier, later) in enumerate(zip(acts, acts[1:])):
            if i < 3:
                assert later - earlier == BURST_TIMING.trrd
        assert acts[4] - acts[0] == BURST_TIMING.tfaw

    def test_checker_cross_validates_the_stream(self):
        """The logged burst replays violation-free through the
        independent shadow checker."""
        log = run_burst()
        checker = ProtocolChecker(
            GEO, BURST_TIMING, expect_refresh=False, mode="strict"
        )
        for cycle, command in log:
            checker.observe(cycle, command)
        assert checker.report.ok
        assert checker.report.commands == len(log)

    def test_checker_flags_shaved_tfaw_stream(self):
        """Replaying the same stream with the fifth ACT moved one cycle
        early must trip the tFAW rule — the negative control proving the
        cross-validation has teeth."""
        log = run_burst()
        acts_seen = 0
        checker = ProtocolChecker(
            GEO, BURST_TIMING, expect_refresh=False, mode="strict"
        )
        with pytest.raises(ConformanceError) as excinfo:
            for cycle, command in log:
                if command.kind is CommandKind.ACT:
                    acts_seen += 1
                    if acts_seen == 5:
                        cycle -= 1  # shave the tFAW wait
                checker.observe(cycle, command)
        assert excinfo.value.violation.constraint == "tFAW"
        assert excinfo.value.violation.slack == -1

    def test_larger_burst_keeps_sliding_window(self):
        """Every 4-apart ACT pair honors tFAW in an 8-ACT burst."""
        acts = act_times(run_burst(banks=8))
        assert len(acts) == 8
        for i in range(4, len(acts)):
            assert acts[i] - acts[i - 4] >= BURST_TIMING.tfaw
