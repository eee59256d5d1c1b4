"""Precompiled command-legality and timing-advance tables.

Every cross-command spacing the device layer enforces is a fixed sum of
:class:`~repro.dram.timing.TimingParameters` fields. This module
resolves them *once per configuration*: :func:`compile_timing_tables`
→ :class:`CommandTables`, consumed by
:class:`~repro.dram.device.DramChannel` as the single source of truth
for its per-issue constants. The activation-timing overrides a
mechanism issues are declared by the mechanism itself
(:meth:`~repro.controller.mechanism.Mechanism.timing_variants`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from repro.dram.commands import ActTimings, CommandKind
from repro.dram.timing import TimingParameters

__all__ = [
    "CommandTables",
    "compile_timing_tables",
    "COMMAND_LEGALITY",
]

#: Declarative command-legality table: the bank state each command kind
#: requires. ``closed`` — no open row in the target bank (slot);
#: ``open`` — a row must be open; ``any`` — legal either way (PRE on a
#: closed bank is a timed no-op); ``all-closed`` — every bank in the
#: channel must be precharged (REF). The bank state machine enforces
#: these; the table states them once for docs and tests.
COMMAND_LEGALITY: Mapping[CommandKind, str] = MappingProxyType(
    {
        CommandKind.ACT: "closed",
        CommandKind.ACT_C: "closed",
        CommandKind.ACT_T: "closed",
        CommandKind.RD: "open",
        CommandKind.WR: "open",
        CommandKind.PRE: "any",
        CommandKind.REF: "all-closed",
    }
)


@dataclass(frozen=True)
class CommandTables:
    """Per-config timing-advance constants for one channel.

    All fields are in DRAM clock cycles. ``bus_cycles`` is indexed by
    :class:`~repro.dram.commands.CommandKind` value: CROW's ``ACT-c`` /
    ``ACT-t`` spend one extra address-transfer cycle on the command bus
    (paper footnote 3).
    """

    base_act: ActTimings
    rd_after_rd: int
    rd_after_wr: int
    wr_after_wr: int
    wr_after_rd: int
    rd_data_delay: int
    wr_done_delay: int
    trrd: int
    tfaw: int
    tfaw_window: int
    trfc: int
    bus_cycles: tuple


@lru_cache(maxsize=None)
def compile_timing_tables(timing: TimingParameters) -> CommandTables:
    """Resolve every derived timing constant for ``timing``.

    Cached per (frozen, hashable) parameter set: all channels of a
    system — and all systems under one config — share one table object.
    """
    bus = [1] * len(CommandKind)
    bus[CommandKind.ACT_C] = 2
    bus[CommandKind.ACT_T] = 2
    return CommandTables(
        base_act=ActTimings(
            trcd=timing.trcd,
            tras_full=timing.tras,
            tras_early=timing.tras,
            twr=timing.twr,
        ),
        rd_after_rd=timing.tccd,
        rd_after_wr=timing.tcwl + timing.tbl + timing.twtr,
        wr_after_wr=timing.tccd,
        wr_after_rd=timing.tcl + timing.tbl + 2 - timing.tcwl,
        rd_data_delay=timing.tcl + timing.tbl,
        wr_done_delay=timing.tcwl + timing.tbl,
        trrd=timing.trrd,
        tfaw=timing.tfaw,
        tfaw_window=4,
        trfc=timing.trfc,
        bus_cycles=tuple(bus),
    )

