"""System configuration (paper Table 2 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.controller.controller import ControllerConfig
from repro.cpu.cache import CacheConfig
from repro.cpu.core import CoreConfig
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigError
from repro.mech import get_plugin, mechanism_names
from repro.units import MIB

__all__ = ["SystemConfig", "MECHANISMS"]

#: Mechanism names accepted by :class:`SystemConfig` — a snapshot of the
#: plugin registry (``repro.mech``) at import time, kept for seeded
#: samplers and back-compat. The registry is the source of truth; the
#: ten pre-plugin names come first, in their historical order.
MECHANISMS = mechanism_names()

#: Values :attr:`SystemConfig.engine` accepts (the field is inert).
ENGINE_NAMES = ("event", "batch")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`repro.sim.system.System`."""

    cores: int = 1
    mechanism: str = "baseline"
    # --- memory organization -----------------------------------------
    geometry: DramGeometry = field(default_factory=DramGeometry)
    density_gbit: int = 8
    refresh_window_ms: float = 64.0
    refresh_enabled: bool = True
    # --- CROW substrate ------------------------------------------------
    copy_rows: int = 8
    use_derived_circuit_factors: bool = False
    allow_partial_restore: bool = True
    reduced_twr: bool = True
    act_c_early_termination: bool = True
    #: 'bypass' (skip caching when all ways are partial) or 'restore'
    #: (the paper's Section 4.1.4 restore-before-evict protocol).
    evict_partial: str = "bypass"
    subarray_group_size: int = 1
    # --- CROW-ref ------------------------------------------------------
    target_refresh_window_ms: float = 128.0
    weak_rows_per_subarray: int | None = 3
    # --- RowHammer -----------------------------------------------------
    hammer_threshold: int = 2000
    # --- baselines -----------------------------------------------------
    tldram_near_rows: int = 8
    salp_subarrays_per_bank: int = 128
    salp_open_page: bool = True
    # --- processor side --------------------------------------------------
    llc_size_bytes: int = 8 * MIB
    prefetcher: bool = False
    core: CoreConfig = field(default_factory=CoreConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    # --- telemetry -------------------------------------------------------
    #: Collect hierarchical stats, epoch time series and (optionally) a
    #: command trace; the export rides on ``SimResult.telemetry``.
    #: Zero-cost when False: no registry is built and no hook fires.
    telemetry: bool = False
    #: Epoch length of the telemetry time series, in memory ticks.
    telemetry_epoch_cycles: int = 10_000
    #: Command-trace ring-buffer capacity (0 disables tracing).
    telemetry_trace_capacity: int = 0
    # --- conformance checking --------------------------------------------
    #: Attach a repro.check.ProtocolChecker to every channel: an
    #: independent shadow oracle validating JEDEC timing, bank-state
    #: legality and CROW invariants on the issued command stream.
    check: bool = False
    #: 'strict' raises ConformanceError on the first violation; 'report'
    #: accumulates CheckViolation records on System.check_report().
    check_mode: str = "strict"
    # --- misc ------------------------------------------------------------
    functional_cells: bool = False
    seed: int = 1
    #: Inert: the simulator has one timed loop and one pre-warm, and
    #: this field selects nothing. It is kept (validated against
    #: ``ENGINE_NAMES`` and excluded from config, task and warm-up
    #: digests) so configs that still name an engine, pickled ones
    #: included, keep loading with unchanged digests.
    engine: str = "event"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("cores must be >= 1")
        # Raises ConfigError listing the registered names when unknown.
        get_plugin(self.mechanism)
        if self.copy_rows < 0:
            raise ConfigError("copy_rows must be non-negative")
        if self.telemetry_epoch_cycles < 1:
            raise ConfigError("telemetry_epoch_cycles must be >= 1")
        if self.telemetry_trace_capacity < 0:
            raise ConfigError("telemetry_trace_capacity must be >= 0")
        if self.check_mode not in ("strict", "report"):
            raise ConfigError(
                "check_mode must be 'strict' or 'report', "
                f"got {self.check_mode!r}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ConfigError(
                f"engine must be one of {ENGINE_NAMES}, got {self.engine!r}"
            )

    def resolved_geometry(self) -> DramGeometry:
        """Geometry with the mechanism plugin's structural knobs applied."""
        changes: dict = {"density_gbit": self.density_gbit}
        changes.update(get_plugin(self.mechanism).geometry_overrides(self))
        return replace(self.geometry, **changes)

    def llc_config(self) -> CacheConfig:
        """The LLC configuration implied by this system config."""
        return CacheConfig(size_bytes=self.llc_size_bytes)
