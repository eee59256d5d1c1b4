"""Command-count + state-residency DRAM energy accounting.

The standard DRAMPower decomposition: per-command incremental energies
(activation/precharge pairs, read and write bursts, refresh bursts) on top
of state-dependent background power (precharge standby plus an increment
for every open row buffer). CROW's ``ACT-t``/``ACT-c`` commands cost 5.8%
more than a conventional activation (paper Figure 7); SALP pays the
open-buffer increment once per *open local row buffer*, which is why its
open-page configurations save latency but burn static energy
(Section 8.1.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.circuit.power import activation_power_overhead
from repro.dram.commands import CommandKind
from repro.dram.device import DramChannel
from repro.dram.timing import TimingParameters
from repro.energy.idd import IddCurrents
from repro.errors import ConfigError

__all__ = [
    "ChannelActivity",
    "EnergyBreakdown",
    "EnergyCoefficients",
    "EnergyModel",
    "breakdown_from_coefficients",
]


@dataclass(frozen=True)
class ChannelActivity:
    """The counters one channel accumulated over the measured interval."""

    n_act: int
    n_act_t: int
    n_act_c: int
    n_rd: int
    n_wr: int
    n_ref: int
    open_buffer_cycles: int
    total_cycles: int
    #: Cycles with >= 1 open row per bank (= ``open_buffer_cycles`` for
    #: conventional banks; smaller for SALP, whose extra concurrently-open
    #: local buffers are charged at the reduced latch rate).
    bank_active_cycles: int = -1

    def __post_init__(self) -> None:
        if self.bank_active_cycles < 0:
            object.__setattr__(
                self, "bank_active_cycles", self.open_buffer_cycles
            )

    @classmethod
    def from_channel(
        cls, channel: DramChannel, total_cycles: int, now: int
    ) -> "ChannelActivity":
        """Collect the counters of ``channel`` into an activity record."""
        counts = channel.counts
        return cls(
            n_act=counts[CommandKind.ACT],
            n_act_t=counts[CommandKind.ACT_T],
            n_act_c=counts[CommandKind.ACT_C],
            n_rd=counts[CommandKind.RD],
            n_wr=counts[CommandKind.WR],
            n_ref=counts[CommandKind.REF],
            open_buffer_cycles=channel.open_buffer_cycles(now),
            total_cycles=total_cycles,
            bank_active_cycles=channel.bank_active_cycles(now),
        )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy by component, in nanojoules."""

    activation_nj: float
    read_nj: float
    write_nj: float
    refresh_nj: float
    background_nj: float

    def __post_init__(self) -> None:
        # A NaN/inf joule count is a modelling bug, and letting it
        # propagate through `+` and ratio math silently poisons every
        # downstream figure.
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ConfigError(
                    f"non-finite energy for {field.name!r}: {value!r}"
                )

    @property
    def total_nj(self) -> float:
        """Sum of all energy components."""
        return (
            self.activation_nj
            + self.read_nj
            + self.write_nj
            + self.refresh_nj
            + self.background_nj
        )

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.activation_nj + other.activation_nj,
            self.read_nj + other.read_nj,
            self.write_nj + other.write_nj,
            self.refresh_nj + other.refresh_nj,
            self.background_nj + other.background_nj,
        )


@dataclass(frozen=True)
class EnergyCoefficients:
    """Everything per-config the energy accounting needs, factored out.

    A channel's energy is (coefficients × activity counts): the
    coefficients depend only on the configuration (timing, IDD set,
    MRA overhead), the counts only on the run. The split lets a run
    compute the coefficients once and apply them to every channel.
    """

    cycle_ns: float
    act_nj: float
    rd_nj: float
    wr_nj: float
    ref_nj: float
    #: Energy multiplier for each ``ACT-t``/``ACT-c`` (>= 1.0).
    mra_overhead: float
    #: Precharge-standby background current (mA).
    idd2n_ma: float
    #: Extra standby current per first-open row buffer (mA).
    open_buffer_ma: float
    #: Latch-power fraction charged per additional open local buffer.
    extra_buffer_fraction: float
    vdd_volts: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ConfigError(
                    f"non-finite energy coefficient "
                    f"{field.name!r}: {value!r}"
                )

    def as_mapping(self) -> dict[str, float]:
        """Flat ``{name: value}`` projection."""
        return {
            field.name: getattr(self, field.name) for field in fields(self)
        }


def breakdown_from_coefficients(
    coefficients: EnergyCoefficients, activity: ChannelActivity
) -> EnergyBreakdown:
    """Total energy of one channel over the measured interval.

    This is *the* energy aggregation — :meth:`EnergyModel.breakdown`
    delegates here, so a run that computes the coefficients once and
    applies them per channel reproduces it bit for bit (same operations
    in the same order; IEEE-754 arithmetic is deterministic).
    """
    c = coefficients
    mra_acts = activity.n_act_t + activity.n_act_c
    activation = (
        activity.n_act + mra_acts * c.mra_overhead
    ) * c.act_nj
    read = activity.n_rd * c.rd_nj
    write = activity.n_wr * c.wr_nj
    refresh = activity.n_ref * c.ref_nj
    # First open buffer per bank costs the full IDD3N increment (bank
    # circuitry); each *additional* concurrently-open local row buffer
    # (SALP) adds only latch power, modelled as a fraction of it.
    extra_buffer_cycles = max(
        0, activity.open_buffer_cycles - activity.bank_active_cycles
    )
    buffer_ma_cycles = (
        c.open_buffer_ma * activity.bank_active_cycles
        + c.open_buffer_ma
        * c.extra_buffer_fraction
        * extra_buffer_cycles
    )
    background = (
        c.idd2n_ma * 1e-3 * activity.total_cycles * c.cycle_ns * c.vdd_volts
        + buffer_ma_cycles * 1e-3 * c.cycle_ns * c.vdd_volts
    )
    return EnergyBreakdown(
        activation_nj=activation,
        read_nj=read,
        write_nj=write,
        refresh_nj=refresh,
        background_nj=background,
    )


class EnergyModel:
    """Energy estimation for one rank/channel."""

    #: Latch-power fraction of the IDD3N increment charged to each
    #: concurrently-open local row buffer beyond the first in a bank.
    EXTRA_BUFFER_FRACTION = 0.3

    def __init__(
        self,
        timing: TimingParameters,
        currents: IddCurrents | None = None,
        mra_power_overhead: float | None = None,
    ) -> None:
        self.timing = timing
        self.currents = currents if currents is not None else IddCurrents.lpddr4()
        self.mra_overhead = (
            activation_power_overhead(2)
            if mra_power_overhead is None
            else 1.0 + mra_power_overhead
        )
        if self.mra_overhead < 1.0:
            raise ConfigError("MRA power overhead cannot be below 1.0")

    # ------------------------------------------------------------------
    # Per-event energies (nJ)
    # ------------------------------------------------------------------
    def _cycle_ns(self) -> float:
        return 1000.0 / self.timing.clock_mhz

    @property
    def act_energy_nj(self) -> float:
        """One conventional activate/precharge pair."""
        i = self.currents
        trc_ns = self.timing.trc * self._cycle_ns()
        return (i.idd0 - i.idd3n) * 1e-3 * trc_ns * i.vdd_volts

    @property
    def rd_energy_nj(self) -> float:
        """Incremental energy of one read burst."""
        i = self.currents
        burst_ns = self.timing.tbl * self._cycle_ns()
        return (i.idd4r - i.idd3n) * 1e-3 * burst_ns * i.vdd_volts

    @property
    def wr_energy_nj(self) -> float:
        """Incremental energy of one write burst."""
        i = self.currents
        burst_ns = self.timing.tbl * self._cycle_ns()
        return (i.idd4w - i.idd3n) * 1e-3 * burst_ns * i.vdd_volts

    @property
    def ref_energy_nj(self) -> float:
        """Incremental energy of one all-bank REF."""
        i = self.currents
        trfc_ns = self.timing.trfc * self._cycle_ns()
        return (i.idd5 - i.idd2n) * 1e-3 * trfc_ns * i.vdd_volts

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def coefficients(self) -> EnergyCoefficients:
        """This model's per-config coefficient set.

        The values are the exact floats :meth:`breakdown` uses.
        """
        i = self.currents
        return EnergyCoefficients(
            cycle_ns=self._cycle_ns(),
            act_nj=self.act_energy_nj,
            rd_nj=self.rd_energy_nj,
            wr_nj=self.wr_energy_nj,
            ref_nj=self.ref_energy_nj,
            mra_overhead=self.mra_overhead,
            idd2n_ma=i.idd2n,
            open_buffer_ma=i.open_buffer_overhead_ma,
            extra_buffer_fraction=self.EXTRA_BUFFER_FRACTION,
            vdd_volts=i.vdd_volts,
        )

    def breakdown(self, activity: ChannelActivity) -> EnergyBreakdown:
        """Total energy of one channel over the measured interval."""
        return breakdown_from_coefficients(self.coefficients(), activity)
