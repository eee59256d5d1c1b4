"""The `repro perf` microbenchmark suite.

Runs a fixed matrix of small deterministic workloads through the full
simulator stack and reports throughput three ways per case:

* ``sim_cycles_per_sec`` — simulated memory-clock cycles per wall second,
* ``events_per_sec`` — retired instructions + served DRAM requests +
  refreshes per wall second,
* ``wall_seconds`` — best-of-``repeat`` end-to-end time (trace synthesis,
  functional prewarm, timed warm-up, and the measured region).

Raw throughputs are informative only — they depend on the host. The
*comparable* numbers are ``normalized_score`` (cycles/sec divided by the
calibrated spin-loop score of :mod:`repro.perf.calibrate`) and their
geometric-mean ``composite``, which a committed baseline can gate in CI.

Every case runs with telemetry enabled and embeds its
``telemetry_digest()`` in the result. The digest doubles as a correctness
oracle: an optimization that changes simulated behaviour shows up as a
digest mismatch against the baseline (exit code 4), distinct from a mere
slowdown (exit code 3).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.perf.calibrate import SPIN_ITERATIONS, spin_score_mops
from repro.sim.config import SystemConfig
from repro.sim.sweep import run_mix, run_workload

__all__ = [
    "CASES",
    "PerfCase",
    "SCHEMA",
    "run_suite",
    "serialize",
    "write_results",
]

SCHEMA = "repro-perf/1"

#: Wall-time noise on shared machines easily reaches ±30%; every timed
#: quantity in this module is therefore a best-of-N minimum.
DEFAULT_REPEAT = 2


@dataclass(frozen=True)
class PerfCase:
    """One deterministic workload in the perf matrix."""

    name: str
    workloads: tuple[str, ...]
    mechanism: str
    instructions: int
    warmup_instructions: int
    seed: int = 1


#: The fixed matrix: a single-core streaming workload (libquantum-like)
#: and a 4-core heterogeneous mix, each with the CROW in-DRAM cache off
#: and on. Small enough to finish in seconds, together they exercise the
#: core model, LLC, scheduler, DRAM timing machines, CROW mechanisms, and
#: the telemetry pipeline.
CASES: tuple[PerfCase, ...] = (
    PerfCase("libq-1c-base", ("libq",), "baseline", 20_000, 5_000),
    PerfCase("libq-1c-crow", ("libq",), "crow-cache", 20_000, 5_000),
    PerfCase(
        "mix-4c-base",
        ("libq", "mcf", "stream-copy", "milc"),
        "baseline",
        10_000,
        2_500,
    ),
    PerfCase(
        "mix-4c-crow",
        ("libq", "mcf", "stream-copy", "milc"),
        "crow-cache",
        10_000,
        2_500,
    ),
)


def _run_case_once(case: PerfCase) -> tuple[float, dict[str, Any]]:
    """One timed end-to-end run; returns (wall seconds, raw facts)."""
    config = SystemConfig(
        cores=len(case.workloads),
        mechanism=case.mechanism,
        seed=case.seed,
        telemetry=True,
    )
    start = time.perf_counter()
    if len(case.workloads) == 1:
        result = run_workload(
            case.workloads[0],
            config,
            instructions=case.instructions,
            warmup_instructions=case.warmup_instructions,
        )
    else:
        result = run_mix(
            list(case.workloads),
            config,
            instructions=case.instructions,
            warmup_instructions=case.warmup_instructions,
        )
    wall = time.perf_counter() - start
    stats = result.controller_stats
    events = (
        len(case.workloads) * case.instructions
        + stats.get("reads_served", 0)
        + stats.get("writes_served", 0)
        + stats.get("refreshes", 0)
    )
    return wall, {
        "digest": result.telemetry_digest(),
        "sim_cycles": result.cycles,
        "events": events,
    }


def run_suite(
    repeat: int = DEFAULT_REPEAT,
    progress: Any = None,
    cases: tuple[PerfCase, ...] = CASES,
) -> dict[str, Any]:
    """Run the matrix and return the (unserialized) results document.

    ``progress`` is an optional ``print``-like callable for live output.
    Deterministic facts (digest, cycles, events) must agree across the
    ``repeat`` runs of a case — disagreement means the simulator itself
    is non-deterministic, and raises immediately.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    spin = spin_score_mops()
    if progress is not None:
        progress(f"spin calibration: {spin:.1f} Mops")
    case_docs: dict[str, Any] = {}
    scores = []
    for case in cases:
        wall = math.inf
        facts: dict[str, Any] | None = None
        for _ in range(repeat):
            run_wall, run_facts = _run_case_once(case)
            if facts is None:
                facts = run_facts
            elif facts != run_facts:
                raise RuntimeError(
                    f"case {case.name!r} is non-deterministic across "
                    f"repeats: {facts} != {run_facts}"
                )
            wall = min(wall, run_wall)
        assert facts is not None
        cycles_per_sec = facts["sim_cycles"] / wall
        score = cycles_per_sec / (spin * 1e6)
        scores.append(score)
        case_docs[case.name] = {
            **facts,
            "instructions": case.instructions,
            "wall_seconds": round(wall, 4),
            "sim_cycles_per_sec": round(cycles_per_sec, 1),
            "events_per_sec": round(facts["events"] / wall, 1),
            "normalized_score": round(score, 6),
        }
        if progress is not None:
            doc = case_docs[case.name]
            progress(
                f"{case.name}: {doc['wall_seconds']:.2f}s wall, "
                f"{doc['sim_cycles_per_sec']:,.0f} cyc/s, "
                f"score {doc['normalized_score']:.4f}"
            )
    composite = math.exp(sum(math.log(s) for s in scores) / len(scores))
    return {
        "schema": SCHEMA,
        "spin": {
            "mops": round(spin, 3),
            "iterations": SPIN_ITERATIONS,
        },
        "repeat": repeat,
        "cases": case_docs,
        "composite": round(composite, 6),
    }


def serialize(doc: dict[str, Any]) -> str:
    """Byte-stable JSON: sorted keys, fixed indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_results(doc: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(serialize(doc))
