"""CROW: A Low-Cost Substrate for Improving DRAM Performance, Energy
Efficiency, and Reliability — full Python reproduction of Hassan et al.,
ISCA 2019.

Quick start::

    from repro import SystemConfig, run_workload

    baseline = run_workload("h264-dec", SystemConfig(mechanism="baseline"))
    crow = run_workload("h264-dec", SystemConfig(mechanism="crow-cache"))
    print(f"speedup: {crow.speedup_over(baseline):.3f}x")

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.circuit` — analytical SPICE-substitute circuit model,
* :mod:`repro.dram` — LPDDR4 device substrate (timing state machines),
* :mod:`repro.controller` — memory controller with the mechanism hook,
* :mod:`repro.core` — the CROW substrate mechanisms (the contribution),
* :mod:`repro.baselines` — TL-DRAM, SALP-MASA, ChargeCache, ideal bounds,
* :mod:`repro.cpu` / :mod:`repro.trace` — trace-driven cores + workloads,
* :mod:`repro.energy` — DRAMPower-style energy accounting,
* :mod:`repro.sim` — system wiring, runner, metrics, sweep helpers.
"""

from repro.sim import (
    SimResult,
    System,
    SystemConfig,
    derive_trace_seed,
    run_mix,
    run_workload,
    weighted_speedup,
)
from repro.trace import MIX_GROUPS, WORKLOADS, build_mix, workload

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "System",
    "SimResult",
    "run_workload",
    "run_mix",
    "derive_trace_seed",
    "weighted_speedup",
    "WORKLOADS",
    "MIX_GROUPS",
    "workload",
    "build_mix",
    "__version__",
]
