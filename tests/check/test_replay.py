"""Offline checking: ``repro.check.replay`` over logged command streams.

The rule-by-rule coverage lives in ``test_checker.py``; these tests pin
what replay adds on top: the fresh device with armed cells, the
``device`` violations it reports, and agreement with the live checker
on streams the simulator logs on the observer bus.
"""

import pytest

from repro.check import replay
from repro.dram import CrowTimings, DramGeometry, TimingParameters
from repro.dram.commands import ActTimings, Command, CommandKind, RowId
from repro.sim import System, SystemConfig
from repro.trace import workload

GEO = DramGeometry(rows_per_bank=4096, channels=1)
T = TimingParameters.lpddr4()
CROW = CrowTimings.from_factors(T)


def act(row: int, bank: int = 0) -> Command:
    return Command(CommandKind.ACT, bank=bank, rows=(RowId.regular(row, 512),))


def act_c(row: int) -> Command:
    regular = RowId.regular(row, 512)
    return Command(
        CommandKind.ACT_C, bank=0,
        rows=(regular, RowId.copy(regular.subarray, 0)),
        timings=ActTimings(
            trcd=CROW.trcd_act_c, tras_full=CROW.tras_act_c_full,
            tras_early=CROW.tras_act_c_full, twr=CROW.twr_mra_full,
        ),
    )


def act_t(row: int) -> Command:
    regular = RowId.regular(row, 512)
    return Command(
        CommandKind.ACT_T, bank=0,
        rows=(regular, RowId.copy(regular.subarray, 0)),
        timings=ActTimings(
            trcd=CROW.trcd_act_t_full, tras_full=CROW.tras_act_t_full,
            tras_early=CROW.tras_act_t_early, twr=CROW.twr_mra_early,
            twr_full=CROW.twr_mra_full,
        ),
    )


def pre(bank: int = 0) -> Command:
    return Command(CommandKind.PRE, bank=bank)


def test_legal_stream_of_every_kind_replays_clean():
    stream = [
        (0, act_c(5)),
        (CROW.tras_act_c_full, pre()),
        (1000, act_t(5)),
        (1000 + CROW.trcd_act_t_full, Command(CommandKind.RD, bank=0, col=0)),
        (1000 + CROW.trcd_act_t_full + T.tcl + T.tbl + 2 - T.tcwl,
         Command(CommandKind.WR, bank=0, col=1)),
        (3000, pre()),
        (4000, act(9, bank=1)),
        (4000 + T.tras, pre(bank=1)),
        (6000, Command(CommandKind.REF, bank=0)),
    ]
    assert {command.kind for _, command in stream} == set(CommandKind)
    report = replay(stream, GEO, T)
    assert report.ok, report.summary()
    assert report.commands == len(stream)


@pytest.mark.parametrize(
    "stream, constraint, device_error",
    [
        ([(0, act(5)), (1, Command(CommandKind.RD, bank=0, col=0))],
         "tRCD", "TimingViolationError"),
        # Never duplicated: the armed cells see the corruption.
        ([(0, act_t(5))], "crow-act-t-unmapped", "DataIntegrityError"),
        ([(100, act(5)), (50, pre())], "cmd-bus", "TimingViolationError"),
    ],
    ids=["trcd", "act-t-unmapped", "out-of-order"],
)
def test_broken_stream_is_reported(stream, constraint, device_error):
    report = replay(stream, GEO, T, expect_refresh=False)
    assert report.commands == len(stream)
    assert report.violations[0].constraint == constraint
    (device,) = [v for v in report.violations if v.constraint == "device"]
    assert device.message.startswith(device_error)


@pytest.mark.parametrize("mechanism", ["baseline", "crow-cache"])
def test_bus_log_replays_like_the_live_checker(mechanism):
    """Offline == online: the stream the controller issued, logged on
    the observer bus, replays conformant with the live command count."""
    config = SystemConfig(mechanism=mechanism, check=True, check_mode="report")
    system = System(config, [workload("h264-dec").trace(0)])
    logs = []
    for channel in system.channels:
        log = []
        channel.attach(
            lambda now, command, log=log: log.append((now, command))
        )
        logs.append(log)
    system.run(instructions=4_000, warmup_instructions=1_000,
               prewarm_accesses=10_000)
    for log, checker in zip(logs, system.checkers):
        report = replay(log, system.geometry, system.timing)
        assert report.ok, report.summary()
        assert report.commands == checker.report.commands
    assert sum(len(log) for log in logs) > 0
