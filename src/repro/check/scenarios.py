"""Randomized short-simulation scenarios for conformance checking.

A :class:`Scenario` is a compact, JSON-serializable description of one
checked simulation: the workload mix, the mechanism, the memory/CROW
configuration knobs and the run length. The same scenario type backs

* the hypothesis fuzz layer in ``tests/fuzz/`` (strategies build the
  scenario componentwise so counterexamples shrink), and
* the ``python -m repro check`` CLI, which sweeps seeded random
  scenarios and can re-run any single one from its case seed or its
  JSON spec.

Scenarios use a deliberately small single-channel geometry so hundreds
of them fit in a CI smoke budget, while still exercising refresh (REF
cadence scales with rows, not capacity) and every mechanism's command
vocabulary.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import NamedTuple

from repro.check.violations import CheckReport
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigError
from repro.mech import get_plugin
from repro.sim.config import MECHANISMS, SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.sweep import derive_trace_seed
from repro.sim.system import System
from repro.trace.stream import TraceStream

__all__ = [
    "ORACLE_RUN",
    "Scenario",
    "SCENARIO_WORKLOADS",
    "random_scenario",
    "run_scenario",
    "run_checked_case",
]

#: Workload pool the random sweep draws from: spans row-buffer-friendly
#: streaming, irregular pointer chasing and a uniformly random address
#: stream (worst case for the row buffer).
SCENARIO_WORKLOADS = (
    "libq",
    "mcf",
    "milc",
    "stream-copy",
    "h264-dec",
    "random",
)

#: Small single-channel geometry: one REF covers rows_per_bank/8192
#: rows, so with 8192 rows the refresh cursor still advances and the
#: whole-window coverage check is meaningful within a short run.
_SCENARIO_GEOMETRY = DramGeometry(
    channels=1,
    rows_per_bank=8192,
)


@dataclass(frozen=True)
class Scenario:
    """One checked short simulation (JSON round-trippable)."""

    workloads: tuple[str, ...] = ("libq",)
    mechanism: str = "baseline"
    density_gbit: int = 8
    refresh_window_ms: float = 64.0
    refresh_enabled: bool = True
    copy_rows: int = 8
    evict_partial: str = "bypass"
    allow_partial_restore: bool = True
    reduced_twr: bool = True
    instructions: int = 3000
    warmup_instructions: int = 500
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ConfigError("scenario needs at least one workload")
        # Raises ConfigError listing the registered names when unknown.
        get_plugin(self.mechanism)

    def to_config(self, mode: str = "strict") -> SystemConfig:
        """The SystemConfig this scenario describes (checker attached)."""
        return SystemConfig(
            cores=len(self.workloads),
            mechanism=self.mechanism,
            geometry=_SCENARIO_GEOMETRY,
            density_gbit=self.density_gbit,
            refresh_window_ms=self.refresh_window_ms,
            refresh_enabled=self.refresh_enabled,
            copy_rows=self.copy_rows,
            evict_partial=self.evict_partial,
            allow_partial_restore=self.allow_partial_restore,
            reduced_twr=self.reduced_twr,
            check=True,
            check_mode=mode,
            seed=self.seed,
        )

    def to_json(self) -> str:
        """Compact one-line JSON spec (CLI ``--scenario`` input)."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        data = json.loads(text)
        data["workloads"] = tuple(data["workloads"])
        return cls(**data)


def random_scenario(case_seed: int) -> Scenario:
    """Deterministically derive one scenario from a case seed.

    Sweeps the dimensions the issue calls out: workload mixes, DRAM
    densities, refresh windows, refresh on/off, CROW cache/ref/rowhammer
    (and combinations), the SALP baseline, copy-row counts and the
    partial-restore/eviction policies.
    """
    rng = random.Random(case_seed)
    cores = rng.choice((1, 1, 2, 4))
    workloads = tuple(
        rng.choice(SCENARIO_WORKLOADS) for _ in range(cores)
    )
    mechanism = rng.choice(MECHANISMS)
    refresh_window_ms = rng.choice((32.0, 64.0))
    return Scenario(
        workloads=workloads,
        mechanism=mechanism,
        density_gbit=rng.choice((8, 16)),
        refresh_window_ms=refresh_window_ms,
        refresh_enabled=rng.random() > 0.1,
        copy_rows=rng.choice((2, 8)),
        evict_partial=rng.choice(("bypass", "restore")),
        allow_partial_restore=rng.random() > 0.25,
        reduced_twr=rng.random() > 0.25,
        instructions=rng.randrange(1000, 3500),
        warmup_instructions=rng.randrange(100, 500),
        seed=rng.randrange(1, 1 << 16),
    )


def run_scenario(
    scenario: Scenario, mode: str = "strict"
) -> tuple[SimResult, CheckReport]:
    """Run one scenario with the checker attached.

    In ``strict`` mode the first violation raises
    :class:`~repro.errors.ConformanceError`; in ``report`` mode the
    merged per-channel report is returned alongside the result.
    """
    config = scenario.to_config(mode)
    traces = [
        TraceStream(name, derive_trace_seed(scenario.seed, core))
        for core, name in enumerate(scenario.workloads)
    ]
    system = System(config, traces)
    result = system.run(
        scenario.instructions,
        scenario.warmup_instructions,
        prewarm_accesses=10_000,
    )
    return result, system.check_report()


class OracleRun(NamedTuple):
    """The run shape one set of committed oracle digests pins."""

    workload: str
    instructions: int
    warmup_instructions: int
    seed: int


#: The one run every ``<workload>-<mechanism>`` entry of
#: ``tests/data/expected_digests.json`` pins; ``repro mechanisms
#: --verify`` and the determinism tests run each mechanism at it.
ORACLE_RUN = OracleRun("libq", 2_000, 500, 1)


def run_checked_case(
    workloads: "tuple[str, ...] | list[str]",
    mechanism: str,
    instructions: int,
    warmup_instructions: int,
    seed: int = 1,
    mode: str = "report",
    telemetry: bool = False,
) -> tuple[SimResult, CheckReport]:
    """Run one full-geometry case checked.

    Mirrors :func:`repro.sim.sweep.run_workload` / ``run_mix`` trace
    seeding exactly, so the simulated stream is the one the digest
    oracle tests (``tests/check/test_oracle_cases.py``,
    ``tests/sim/test_determinism.py``) see — with the conformance
    checker attached on top.
    """
    config = SystemConfig(
        cores=len(workloads),
        mechanism=mechanism,
        seed=seed,
        check=True,
        check_mode=mode,
        telemetry=telemetry,
    )
    if len(workloads) == 1:
        traces = [TraceStream(workloads[0], 0)]
    else:
        traces = [
            TraceStream(name, derive_trace_seed(0, core))
            for core, name in enumerate(workloads)
        ]
    system = System(config, traces)
    result = system.run(instructions, warmup_instructions)
    return result, system.check_report()
