"""Contract of the DramChannel command-observer bus.

Observers are ``(now, command)`` callables attached with
``DramChannel.attach``. They fire in attach order after every command
the device accepts; a rejected command reaches none of them.
"""

import pytest

from repro.dram import CrowTimings, DramChannel, DramGeometry, TimingParameters
from repro.dram.commands import ActTimings, Command, CommandKind, RowId
from repro.errors import ConformanceError, TimingViolationError
from repro.sim import System, SystemConfig
from repro.trace import workload

GEO = DramGeometry()
TIMING = TimingParameters.lpddr4()
CROW = CrowTimings.from_factors(TIMING)


def act(row: int, bank: int = 0) -> Command:
    return Command(CommandKind.ACT, bank=bank, rows=(RowId.regular(row, 512),))


def act_t_unmapped(row: int = 5) -> Command:
    """An ACT-t on a pair no ACT-c ever duplicated: the device (without
    cells) accepts it, the shadow checker does not."""
    regular = RowId.regular(row, 512)
    return Command(
        CommandKind.ACT_T,
        bank=0,
        rows=(regular, RowId.copy(regular.subarray, 0)),
        timings=ActTimings(
            trcd=CROW.trcd_act_t_full, tras_full=CROW.tras_act_t_full,
            tras_early=CROW.tras_act_t_early, twr=CROW.twr_mra_early,
            twr_full=CROW.twr_mra_full,
        ),
    )


def test_detach_restores_the_unobserved_channel():
    channel = DramChannel(GEO, TIMING)
    log = []

    def observer(now, command):
        log.append((now, command.kind))

    channel.attach(observer)
    channel.issue(act(5), 0)
    channel.detach(observer)
    assert channel._observers == ()
    channel.issue(act(6, bank=1), TIMING.trrd)
    assert log == [(0, CommandKind.ACT)]
    with pytest.raises(ValueError):
        channel.detach(observer)


def test_observers_fire_in_attach_order():
    channel = DramChannel(GEO, TIMING)
    calls = []
    channel.attach(lambda now, command: calls.append(("first", now)))
    channel.attach(lambda now, command: calls.append(("second", now)))
    channel.issue(act(5), 0)
    channel.issue(act(6, bank=1), TIMING.trrd)
    assert calls == [
        ("first", 0), ("second", 0),
        ("first", TIMING.trrd), ("second", TIMING.trrd),
    ]


def test_rejected_command_reaches_no_observer():
    channel = DramChannel(GEO, TIMING)
    log = []
    channel.attach(lambda now, command: log.append((now, command)))
    channel.issue(act(5), 0)
    with pytest.raises(TimingViolationError):
        channel.issue(Command(CommandKind.RD, bank=0, col=0), 1)
    assert [(now, command.kind) for now, command in log] == [
        (0, CommandKind.ACT)
    ]


def test_strict_violation_is_the_last_traced_event():
    """System attaches the telemetry trace before the strict checker,
    so the command the checker rejects is already in the trace."""
    config = SystemConfig(
        mechanism="crow-cache", check=True, telemetry=True,
        telemetry_trace_capacity=64,
    )
    system = System(config, [workload("libq").trace(0)])
    with pytest.raises(ConformanceError) as excinfo:
        system.channels[0].issue(act_t_unmapped(), 0)
    assert excinfo.value.violation.constraint == "crow-act-t-unmapped"
    tick, cmd, bank, _, _ = system.telemetry.trace.events()[-1]
    assert (tick, cmd, bank) == (0, "ACT_T", 0)
