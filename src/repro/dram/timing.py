"""LPDDR4 timing parameters and CROW command timing derivation.

All values are stored in DRAM bus-clock cycles (1600 MHz by default, as in
Table 2 of the paper: tRCD/tRAS/tWR = 29/67/29 cycles = 18/42/18 ns).

Density scaling: higher-density chips refresh more rows per REF command,
so tRFC grows with density while tREFI stays fixed by the refresh window.
The 8–32 Gbit points follow JEDEC trends; 64 Gbit is the paper's
"futuristic" extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.circuit.mra import CrowTimingFactors
from repro.errors import ConfigError
from repro.units import ms_to_cycles, ns_to_cycles

__all__ = [
    "TimingParameters",
    "CrowTimings",
    "TRFC_NS_BY_DENSITY",
    "scale_cycles",
]

#: Refresh-cycle time (all-bank REF) in nanoseconds, by chip density in Gbit.
TRFC_NS_BY_DENSITY = {8: 280.0, 16: 380.0, 32: 550.0, 64: 950.0}

#: REF commands required to refresh every row once per refresh window.
REF_COMMANDS_PER_WINDOW = 8192


@dataclass(frozen=True)
class TimingParameters:
    """DRAM timing constraint set, in bus-clock cycles."""

    clock_mhz: float = 1600.0
    trcd: int = 29
    tras: int = 67
    trp: int = 29
    twr: int = 29
    tcl: int = 28
    tcwl: int = 18
    tbl: int = 8
    tccd: int = 8
    trtp: int = 12
    twtr: int = 16
    trrd: int = 16
    tfaw: int = 64
    trfc: int = 448
    trefi: int = 12500
    refresh_window_ms: float = 64.0

    def __post_init__(self) -> None:
        for name in (
            "trcd",
            "tras",
            "trp",
            "twr",
            "tcl",
            "tcwl",
            "tbl",
            "tccd",
            "trtp",
            "twtr",
            "trrd",
            "tfaw",
            "trfc",
            "trefi",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1 cycle")
        if self.clock_mhz <= 0:
            raise ConfigError("clock_mhz must be positive")
        # Cross-field sanity: parameter sets violating these describe a
        # device that cannot operate (a row would close before its first
        # column command, four back-to-back ACTs would overrun tFAW, or
        # refresh would occupy the channel full-time).
        if self.tras < self.trcd:
            raise ConfigError(
                f"tras ({self.tras}) must be >= trcd ({self.trcd}): a row "
                f"must stay open at least until it can be accessed"
            )
        if self.tfaw < self.trrd:
            raise ConfigError(
                f"tfaw ({self.tfaw}) must be >= trrd ({self.trrd}): the "
                f"four-ACT window cannot be shorter than one ACT gap"
            )
        if self.trefi <= self.trfc:
            raise ConfigError(
                f"trefi ({self.trefi}) must be > trfc ({self.trfc}): "
                f"refresh would blackout the channel continuously"
            )

    @property
    def trc(self) -> int:
        """Minimum activate-to-activate time for the same bank."""
        return self.tras + self.trp

    @classmethod
    def lpddr4(
        cls,
        density_gbit: int = 8,
        refresh_window_ms: float = 64.0,
        clock_mhz: float = 1600.0,
    ) -> "TimingParameters":
        """Standard LPDDR4 timings for a given chip density.

        ``refresh_window_ms`` is the interval within which every row must
        be refreshed once; CROW-ref extends it (e.g. 64 ms -> 128 ms) by
        remapping retention-weak rows (paper Section 4.2).
        """
        if density_gbit not in TRFC_NS_BY_DENSITY:
            raise ConfigError(
                f"density_gbit must be one of {sorted(TRFC_NS_BY_DENSITY)}"
            )
        if refresh_window_ms <= 0:
            raise ConfigError("refresh_window_ms must be positive")
        trefi = ms_to_cycles(refresh_window_ms, clock_mhz) // REF_COMMANDS_PER_WINDOW
        return cls(
            clock_mhz=clock_mhz,
            trcd=ns_to_cycles(18.0, clock_mhz),
            tras=ns_to_cycles(42.0, clock_mhz),
            trp=ns_to_cycles(18.0, clock_mhz),
            twr=ns_to_cycles(18.0, clock_mhz),
            tcl=ns_to_cycles(17.5, clock_mhz),
            tcwl=ns_to_cycles(11.0, clock_mhz),
            tbl=8,
            tccd=8,
            trtp=ns_to_cycles(7.5, clock_mhz),
            twtr=ns_to_cycles(10.0, clock_mhz),
            trrd=ns_to_cycles(10.0, clock_mhz),
            tfaw=ns_to_cycles(40.0, clock_mhz),
            trfc=ns_to_cycles(TRFC_NS_BY_DENSITY[density_gbit], clock_mhz),
            trefi=trefi,
            refresh_window_ms=refresh_window_ms,
        )

    def with_refresh_window(self, refresh_window_ms: float) -> "TimingParameters":
        """Copy with the refresh window (and hence tREFI) changed."""
        if refresh_window_ms <= 0:
            raise ConfigError("refresh_window_ms must be positive")
        trefi = (
            ms_to_cycles(refresh_window_ms, self.clock_mhz) // REF_COMMANDS_PER_WINDOW
        )
        return replace(self, trefi=trefi, refresh_window_ms=refresh_window_ms)


def scale_cycles(cycles: int, factor: float) -> int:
    """Scale a cycle count by a timing factor, rounding up (safe side)."""
    return max(1, math.ceil(cycles * factor - 1e-9))


# Backwards-compatible private alias used inside this module.
_scale = scale_cycles


@dataclass(frozen=True)
class CrowTimings:
    """Resolved cycle counts for the CROW commands (from Table 1 factors).

    ``*_full`` tRAS values fully restore the activated cells;
    ``*_early`` values terminate restoration early (partial restoration).
    """

    trcd_act_t_full: int
    trcd_act_t_partial: int
    tras_act_t_full: int
    tras_act_t_early: int
    tras_act_t_partial_early: int
    trcd_act_c: int
    tras_act_c_full: int
    tras_act_c_early: int
    twr_mra_full: int
    twr_mra_early: int

    @classmethod
    def from_factors(
        cls, timing: TimingParameters, factors: CrowTimingFactors | None = None
    ) -> "CrowTimings":
        """Apply Table 1 factors to the baseline timing parameter set."""
        f = factors if factors is not None else CrowTimingFactors.paper()
        f.validate()
        return cls(
            trcd_act_t_full=_scale(timing.trcd, f.act_t_full_trcd),
            trcd_act_t_partial=_scale(timing.trcd, f.act_t_partial_trcd),
            tras_act_t_full=_scale(timing.tras, f.act_t_tras_full),
            tras_act_t_early=_scale(timing.tras, f.act_t_tras_early),
            tras_act_t_partial_early=_scale(timing.tras, f.act_t_partial_tras_early),
            trcd_act_c=_scale(timing.trcd, f.act_c_trcd),
            tras_act_c_full=_scale(timing.tras, f.act_c_tras_full),
            tras_act_c_early=_scale(timing.tras, f.act_c_tras_early),
            twr_mra_full=_scale(timing.twr, f.twr_full),
            twr_mra_early=_scale(timing.twr, f.twr_early),
        )
