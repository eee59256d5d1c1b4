"""Precompiled timing-advance tables.

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

from repro.dram.commands import ActTimings
from repro.dram.timing import TimingParameters

__all__ = [
    "CommandTables",
    "compile_timing_tables",
]


@dataclass(frozen=True)
class CommandTables:
    """Per-config timing-advance constants for one channel.

    All fields are in DRAM clock cycles.
    """

    base_act: ActTimings
    rd_after_rd: int
    rd_after_wr: int
    wr_after_wr: int
    wr_after_rd: int
    rd_data_delay: int
    wr_done_delay: int


@lru_cache(maxsize=None)
def compile_timing_tables(timing: TimingParameters) -> CommandTables:
    """Resolve every derived timing constant for ``timing``.

    Cached per (frozen, hashable) parameter set: all channels of a
    system — and all systems under one config — share one table object.
    """
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
    )

