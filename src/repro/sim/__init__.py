"""Full-system simulation: configuration, wiring, runner, metrics."""

from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.sim.metrics import SimResult, weighted_speedup
from repro.sim.sweep import (
    run_workload,
    run_mix,
    derive_trace_seed,
)
from repro.sim.campaign import Campaign

__all__ = [
    "SystemConfig",
    "System",
    "SimResult",
    "weighted_speedup",
    "run_workload",
    "run_mix",
    "derive_trace_seed",
    "Campaign",
]
