"""Offline checking: replay a logged command stream through a fresh device.

A stream logged on a channel's observer bus (an observer that appends
each ``(cycle, command)`` pair to a list) can be re-checked away from
the controller that produced it. :func:`replay` feeds every command to a
fresh report-mode :class:`~repro.check.ProtocolChecker` and then issues
it on a fresh :class:`~repro.dram.device.DramChannel` with the functional
cell array armed. Every regular row the stream touches is seeded *live*
with a unique pattern, so an ``ACT-t`` on a pair that was never made a
duplicate, or a single activation of a partially restored row, corrupts
data and the device rejects it. Device rejections land in the same
report as ``device`` violations; a rejected command does not apply, so
one violation does not cascade.
"""

from __future__ import annotations

from typing import Iterable

from repro.check.checker import ProtocolChecker
from repro.check.violations import CheckReport
from repro.dram.cellarray import CellArray
from repro.dram.commands import Command, RowKind
from repro.dram.device import DramChannel
from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParameters
from repro.errors import ReproError

__all__ = ["replay"]


def replay(
    stream: Iterable[tuple[int, Command]],
    geometry: DramGeometry,
    timing: TimingParameters,
    **checker_options,
) -> CheckReport:
    """Check a ``(cycle, command)`` stream offline; return the report.

    ``checker_options`` are :class:`~repro.check.ProtocolChecker`
    keyword arguments (``expect_refresh``, ``invariants`` ...); the
    checker always runs in report mode. The report is finalized at the
    last command's cycle.
    """
    records = list(stream)
    cells = CellArray(
        geometry, clock_mhz=timing.clock_mhz, enforce_retention=True
    )
    for _, command in records:
        for row in command.rows:
            if row.kind is RowKind.REGULAR and not cells.is_live(
                command.bank, row
            ):
                pattern = (
                    (command.bank << 32) | (row.subarray << 16) | row.index
                )
                cells.set_row_data(command.bank, row, pattern)
    device = DramChannel(geometry, timing, cell_array=cells)
    checker = ProtocolChecker(
        geometry, timing, mode="report", **checker_options
    )
    for cycle, command in records:
        checker.observe(cycle, command)
        try:
            device.issue(command, cycle)
        except ReproError as error:
            checker.violate(
                cycle, command.bank, "device", command.kind.name,
                message=f"{type(error).__name__}: {error}",
            )
    return checker.finalize(records[-1][0] if records else 0)
