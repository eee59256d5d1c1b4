"""Technology constants for the analytical circuit model.

The values model a 22 nm DRAM process, obtained (as in the paper) by scaling
a 55 nm reference technology. Absolute component values are representative
rather than foundry-exact; the model is *calibrated* so that its derived
timing deltas reproduce the paper's published SPICE operating points:

* two-row activation of fully-restored rows reduces tRCD by 38%,
* two-row activation increases full-restoration time such that tRAS changes
  by only -7% (the tRCD reduction outweighs the restoration increase),
* ``ACT-c`` (connecting the copy row after sensing) increases tRAS by 18%.

Baseline LPDDR4 timing anchors come from Table 2 of the paper:
tRCD = 18 ns, tRAS = 42 ns, tWR = 18 ns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["TechnologyParameters"]


@dataclass(frozen=True)
class TechnologyParameters:
    """Electrical and timing constants of the modelled DRAM process.

    Attributes
    ----------
    vdd_volts:
        Core array voltage (LPDDR4 uses a 1.1 V core rail).
    cell_capacitance_ff:
        Storage-cell capacitance in femtofarads.
    bitline_capacitance_ff:
        Parasitic bitline capacitance in femtofarads. The ratio
        ``cell/bitline`` (~0.22 here) controls the charge-sharing voltage
        swing, the quantity that two-row activation improves.
    wordline_delay_ns:
        Fixed wordline-enable plus charge-equalisation delay that precedes
        sensing and does not scale with the number of activated rows.
    senseamp_gain_ns_v:
        Sense-amplifier development constant: the time for the latch to
        develop a full swing is ``senseamp_gain_ns_v / delta_v`` where
        ``delta_v`` is the charge-sharing perturbation in volts.
    restore_resistance_time_ns:
        ``R_sa * C_bitline`` product governing the exponential charge
        restoration of the bitline plus attached cells.
    full_restore_fraction:
        Cell-voltage fraction of VDD considered "fully restored".
    ready_to_access_fraction:
        Bitline swing fraction at which read/write commands may proceed
        (defines the end of tRCD).
    copy_row_connect_penalty_ns:
        Extra settling time when ``ACT-c`` connects the copy-row wordline
        in the middle of restoration (wordline rise + re-equalisation).
    retention_base_ms:
        Data-retention time of a single fully-restored cell at worst-case
        temperature; the standard refresh window (64 ms) with margin.
    sense_threshold_v:
        Minimum charge-sharing swing the sense amplifier can resolve
        reliably; retention expires when the achievable swing of a decayed
        cell falls below this threshold.
    """

    vdd_volts: float = 1.1
    cell_capacitance_ff: float = 22.0
    bitline_capacitance_ff: float = 100.0
    wordline_delay_ns: float = 1.5
    senseamp_gain_ns_v: float = 1.634
    restore_resistance_time_ns: float = 6.56
    full_restore_fraction: float = 0.975
    ready_to_access_fraction: float = 0.90
    copy_row_connect_penalty_ns: float = 4.8
    retention_base_ms: float = 64.0
    sense_threshold_v: float = 0.04
    # Baseline LPDDR4 timing anchors (paper Table 2), in nanoseconds.
    trcd_ns: float = 18.0
    tras_ns: float = 42.0
    twr_ns: float = 18.0
    # Fixed (I/O + driver turn-on) portion of the write-recovery path; the
    # remaining ``twr_ns - write_fixed_ns`` scales with the restoration RC.
    write_fixed_ns: float = 4.0

    def __post_init__(self) -> None:
        positive_fields = (
            "vdd_volts",
            "cell_capacitance_ff",
            "bitline_capacitance_ff",
            "senseamp_gain_ns_v",
            "restore_resistance_time_ns",
            "trcd_ns",
            "tras_ns",
            "twr_ns",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("full_restore_fraction", "ready_to_access_fraction"):
            value = getattr(self, name)
            if not 0.5 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0.5, 1.0], got {value}")
        if self.wordline_delay_ns < 0.0:
            raise ConfigError("wordline_delay_ns must be non-negative")

    @property
    def capacitance_ratio(self) -> float:
        """Cell-to-bitline capacitance ratio ``Cc / Cb``."""
        return self.cell_capacitance_ff / self.bitline_capacitance_ff
