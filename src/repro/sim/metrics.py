"""Simulation results and metrics (IPC, weighted speedup, energy)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.model import EnergyBreakdown
from repro.errors import ConfigError

__all__ = ["SimResult", "weighted_speedup"]


@dataclass(frozen=True)
class SimResult:
    """Everything measured over the post-warm-up region of one run."""

    mechanism: str
    cores: int
    cycles: int                    # memory-clock cycles of the measured region
    clock_ratio: float             # CPU cycles per memory cycle
    core_ipcs: list[float]         # per-core IPC in CPU cycles
    core_mpki: list[float]         # per-core LLC misses per kilo-instruction
    llc_miss_rate: float
    energy: EnergyBreakdown | None
    crow_hit_rate: float | None
    mechanism_stats: dict[str, float] = field(default_factory=dict)
    controller_stats: dict[str, int] = field(default_factory=dict)
    refresh_window_ms: float = 64.0
    #: Full telemetry export (``SystemConfig(telemetry=True)`` runs
    #: only): the nested plain dict :meth:`SystemTelemetry.finalize`
    #: builds at harvest — see :mod:`repro.telemetry`.
    telemetry: "dict | None" = None

    @property
    def ipc(self) -> float:
        """Single-core IPC (raises for multi-core results)."""
        if self.cores != 1:
            raise ConfigError("ipc is a single-core metric; use core_ipcs")
        return self.core_ipcs[0]

    @property
    def ipc_sum(self) -> float:
        """Sum of per-core IPCs (multiprogrammed throughput)."""
        return sum(self.core_ipcs)

    @property
    def total_energy_nj(self) -> float:
        """Total DRAM energy over the measured region."""
        return self.energy.total_nj if self.energy is not None else 0.0

    def speedup_over(self, baseline: "SimResult") -> float:
        """Single-core speedup, or IPC-throughput ratio for multi-core."""
        if self.cores == 1 and baseline.cores == 1:
            return self.ipc / baseline.ipc
        return self.ipc_sum / baseline.ipc_sum

    def weighted_speedup(self, alone_ipcs: list[float]) -> float:
        """Sum of per-core IPC slowdowns versus running alone [104]."""
        return weighted_speedup(self.core_ipcs, alone_ipcs)

    def energy_ratio(self, baseline: "SimResult") -> float:
        """DRAM energy normalized to a baseline run."""
        if self.energy is None or baseline.energy is None:
            raise ConfigError("both results need energy accounting")
        return self.energy.total_nj / baseline.energy.total_nj

    def telemetry_digest(self) -> "str | None":
        """Content digest of the telemetry export (None when disabled).

        Deterministic: identical (config, seed) runs produce identical
        digests, which is how journals fingerprint a task's telemetry.
        """
        if self.telemetry is None:
            return None
        from repro.telemetry import export_digest

        return export_digest(self.telemetry)


def weighted_speedup(shared_ipcs: list[float], alone_ipcs: list[float]) -> float:
    """The multiprogrammed weighted-speedup metric (Section 7, [104])."""
    if len(shared_ipcs) != len(alone_ipcs):
        raise ConfigError("IPC lists must have the same length")
    if any(ipc <= 0 for ipc in alone_ipcs):
        raise ConfigError("alone IPCs must be positive")
    return sum(s / a for s, a in zip(shared_ipcs, alone_ipcs))
