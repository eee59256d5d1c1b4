"""Multiple-row activation (MRA) timing derivation.

This module turns the bitline/sense-amp physics into the quantities the
paper publishes:

* change in tRCD with the number of simultaneously-activated rows
  (Figure 5a: -38% for two rows),
* change in tRAS / restoration / tWR with the number of rows (Figure 5b),
* the tRCD-vs-tRAS trade-off frontier from terminating restoration early
  (Figure 6),
* the per-command timing factor set of Table 1, consumed by the
  architecture-level simulator (:func:`derive_crow_timing_factors`).

The simulator defaults to the paper's published Table 1 factors
(:meth:`CrowTimingFactors.paper`) so that architecture results are anchored
to the paper; the derived factors demonstrate that the analytical model
lands on the same operating points (see ``tests/circuit/test_mra.py`` and
``benchmarks/bench_table1_command_timings.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuit.bitline import BitlineModel
from repro.circuit.constants import TechnologyParameters
from repro.circuit.senseamp import SenseAmpModel
from repro.errors import ConfigError

__all__ = [
    "MraTimings",
    "TradeoffPoint",
    "CrowTimingFactors",
    "MraModel",
    "derive_crow_timing_factors",
]


@dataclass(frozen=True)
class MraTimings:
    """Absolute activation timings, in nanoseconds."""

    trcd_ns: float
    tras_ns: float
    twr_ns: float


@dataclass(frozen=True)
class TradeoffPoint:
    """One point on the Figure 6 tRCD-vs-tRAS trade-off frontier."""

    restore_fraction: float
    tras_factor: float
    next_trcd_factor: float
    retention_ms: float


@dataclass(frozen=True)
class CrowTimingFactors:
    """Timing multipliers for the CROW commands, relative to baseline.

    Field names follow Table 1 of the paper. ``*_early`` variants apply
    when the memory controller terminates charge restoration early
    (partial restoration, Section 4.1.3); the non-early variants apply
    when the row pair is left open long enough to fully restore.
    """

    act_t_full_trcd: float = 0.62
    act_t_partial_trcd: float = 0.79
    act_t_tras_full: float = 0.93
    act_t_tras_early: float = 0.67
    act_t_partial_tras_early: float = 0.75
    act_c_trcd: float = 1.00
    act_c_tras_full: float = 1.18
    act_c_tras_early: float = 0.93
    twr_full: float = 1.14
    twr_early: float = 0.87

    @classmethod
    def paper(cls) -> "CrowTimingFactors":
        """The exact factors published in Table 1 of the paper."""
        return cls()

    def validate(self) -> None:
        """Sanity-check physical plausibility of the factor set."""
        if not 0.0 < self.act_t_full_trcd <= 1.0:
            raise ConfigError("ACT-t tRCD factor must be in (0, 1]")
        if self.act_t_partial_trcd < self.act_t_full_trcd:
            raise ConfigError(
                "partially-restored rows cannot activate faster than "
                "fully-restored rows"
            )
        if self.act_t_tras_early > self.act_t_tras_full:
            raise ConfigError("early restoration termination must shorten tRAS")
        if self.act_c_tras_full <= 1.0:
            raise ConfigError("ACT-c must lengthen full restoration (two cells)")


class MraModel:
    """Derives activation/restoration/write timings for MRA operations."""

    def __init__(self, tech: TechnologyParameters | None = None) -> None:
        self.tech = tech if tech is not None else TechnologyParameters()
        self.senseamp = SenseAmpModel(self.tech)
        self.bitline = BitlineModel(self.tech)

    # ------------------------------------------------------------------
    # Absolute timings
    # ------------------------------------------------------------------
    def baseline(self) -> MraTimings:
        """Conventional single-row activation timings from the model."""
        return self.activate(n_rows=1)

    def activate(
        self,
        n_rows: int,
        start_fraction: float | None = None,
        restore_fraction: float | None = None,
    ) -> MraTimings:
        """Timings for simultaneously activating ``n_rows`` duplicate rows.

        Parameters
        ----------
        n_rows:
            Number of rows (cells per bitline) activated together.
        start_fraction:
            Pre-activation cell charge as a fraction of VDD; defaults to
            fully restored. Partially-restored rows sense more slowly.
        restore_fraction:
            Target charge at which restoration is terminated; defaults to
            fully restored. Lower targets shorten tRAS and tWR at the cost
            of slower future sensing and shorter retention.
        """
        tech = self.tech
        start = tech.full_restore_fraction if start_fraction is None else start_fraction
        target = tech.full_restore_fraction if restore_fraction is None else restore_fraction
        trcd = self.senseamp.sensing_complete_ns(n_rows, start)
        restore = self.senseamp.restoration_time_ns(
            n_rows, target_fraction=target, start_fraction=start
        )
        twr = self.senseamp.write_time_ns(n_rows, target)
        return MraTimings(trcd_ns=trcd, tras_ns=trcd + restore, twr_ns=twr)

    def activate_and_copy(
        self,
        restore_fraction: float | None = None,
    ) -> MraTimings:
        """Timings for ``ACT-c``: sense one row, restore into two rows.

        Sensing proceeds on the source row alone (tRCD is unchanged); the
        copy-row wordline is enabled after sensing, adding a connect/settle
        penalty and doubling the restored capacitance (paper Section 5.2).
        """
        tech = self.tech
        target = tech.full_restore_fraction if restore_fraction is None else restore_fraction
        trcd = self.senseamp.sensing_complete_ns(1, tech.full_restore_fraction)
        restore = self.senseamp.restoration_time_ns(
            2, target_fraction=target, start_fraction=tech.full_restore_fraction
        )
        restore += tech.copy_row_connect_penalty_ns
        twr = self.senseamp.write_time_ns(2, target)
        return MraTimings(trcd_ns=trcd, tras_ns=trcd + restore, twr_ns=twr)

    # ------------------------------------------------------------------
    # Figure 5: latency change vs. number of rows
    # ------------------------------------------------------------------
    def trcd_factor(self, n_rows: int) -> float:
        """Figure 5a: normalized tRCD for ``n_rows``-row activation."""
        return (
            self.senseamp.sensing_complete_ns(n_rows)
            / self.senseamp.sensing_complete_ns(1)
        )

    def restoration_factor(self, n_rows: int) -> float:
        """Figure 5b: normalized full-restoration time for ``n_rows`` rows."""
        full = self.tech.full_restore_fraction
        return self.senseamp.restoration_time_ns(
            n_rows, full
        ) / self.senseamp.restoration_time_ns(1, full)

    def tras_factor(self, n_rows: int) -> float:
        """Figure 5b: normalized tRAS (sensing + full restoration)."""
        base = self.baseline()
        return self.activate(n_rows).tras_ns / base.tras_ns

    def twr_factor(self, n_rows: int) -> float:
        """Figure 5b: normalized tWR for ``n_rows``-row writes."""
        full = self.tech.full_restore_fraction
        return self.senseamp.write_time_ns(n_rows, full) / self.tech.twr_ns

    # ------------------------------------------------------------------
    # Figure 6: tRCD vs tRAS trade-off from early restoration termination
    # ------------------------------------------------------------------
    def min_restore_fraction(
        self, n_rows: int, retention_ms: float | None = None
    ) -> float:
        """Smallest restore target that still meets the retention window.

        Solves ``retention_time(n_rows, f) >= retention_ms`` for ``f``.
        """
        target_ms = self.tech.retention_base_ms if retention_ms is None else retention_ms
        floor = self.bitline.minimum_cell_fraction(n_rows)
        v_floor_single = self.bitline.minimum_cell_fraction(1) * self.tech.vdd_volts
        leak_tau_ms = self.tech.retention_base_ms / math.log(
            self.tech.full_restore_fraction * self.tech.vdd_volts / v_floor_single
        )
        fraction = floor * math.exp(target_ms / leak_tau_ms)
        if fraction >= self.tech.full_restore_fraction:
            raise ConfigError(
                f"{n_rows}-row activation cannot meet {target_ms} ms retention "
                "even with full restoration"
            )
        return fraction

    def tradeoff_frontier(
        self,
        n_rows: int,
        n_points: int = 16,
        retention_margin: float = 1.0,
    ) -> list[TradeoffPoint]:
        """Figure 6: achievable (tRAS, next-activation tRCD) pairs.

        Sweeps the restoration-termination target from the retention-safe
        minimum up to full restoration. Each point reports the normalized
        tRAS of the *current* activation and the normalized tRCD of the
        *next* activation of the same (now partially-restored) rows.
        """
        if n_points < 2:
            raise ConfigError("n_points must be >= 2")
        base = self.baseline()
        f_min = self.min_restore_fraction(
            n_rows, self.tech.retention_base_ms * retention_margin
        )
        f_max = self.tech.full_restore_fraction
        points = []
        for i in range(n_points):
            fraction = f_min + (f_max - f_min) * i / (n_points - 1)
            timings = self.activate(n_rows, restore_fraction=fraction)
            next_trcd = self.senseamp.sensing_complete_ns(n_rows, fraction)
            points.append(
                TradeoffPoint(
                    restore_fraction=fraction,
                    tras_factor=timings.tras_ns / base.tras_ns,
                    next_trcd_factor=next_trcd / base.trcd_ns,
                    retention_ms=self.bitline.retention_time_ms(n_rows, fraction),
                )
            )
        return points


def derive_crow_timing_factors(
    tech: TechnologyParameters | None = None,
    retention_margin: float = 1.25,
) -> CrowTimingFactors:
    """Derive the Table 1 factor set from the analytical circuit model.

    ``retention_margin`` sets how much retention headroom (relative to the
    refresh window) the early-termination target must keep; the paper's
    chosen operating point corresponds to a modest margin above the bare
    minimum. The returned factors land within a few percent of the
    published Table 1 values (asserted by the test suite).
    """
    model = MraModel(tech)
    base = model.baseline()
    full = model.tech.full_restore_fraction

    partial = model.min_restore_fraction(
        2, model.tech.retention_base_ms * retention_margin
    )

    act_t_full = model.activate(2)
    act_t_early = model.activate(2, restore_fraction=partial)
    act_t_from_partial_full = model.activate(2, start_fraction=partial)
    act_t_from_partial_early = model.activate(
        2, start_fraction=partial, restore_fraction=partial
    )
    act_c_full = model.activate_and_copy()
    act_c_early = model.activate_and_copy(restore_fraction=partial)

    factors = CrowTimingFactors(
        act_t_full_trcd=act_t_full.trcd_ns / base.trcd_ns,
        act_t_partial_trcd=act_t_from_partial_full.trcd_ns / base.trcd_ns,
        act_t_tras_full=act_t_full.tras_ns / base.tras_ns,
        act_t_tras_early=act_t_early.tras_ns / base.tras_ns,
        act_t_partial_tras_early=act_t_from_partial_early.tras_ns / base.tras_ns,
        act_c_trcd=act_c_full.trcd_ns / base.trcd_ns,
        act_c_tras_full=act_c_full.tras_ns / base.tras_ns,
        act_c_tras_early=act_c_early.tras_ns / base.tras_ns,
        twr_full=model.senseamp.write_time_ns(2, full) / model.tech.twr_ns,
        twr_early=model.senseamp.write_time_ns(2, partial) / model.tech.twr_ns,
    )
    factors.validate()
    return factors
