"""Experiment helpers: run one workload or one mix under a configuration.

These wrap the System construction + run boilerplate. ``TaskSpec.run``
(``repro.exec``) calls them, so every campaign and every figure benchmark
(which hands its whole ``TaskSpec`` list to ``benchmarks/_harness.sweep``)
reaches the simulator through them; the CLI's ``run`` and ``stats``
commands call them directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.system import System
from repro.trace.stream import TraceStream
from repro.trace.workloads import Workload, workload as lookup_workload

__all__ = ["run_workload", "run_mix", "derive_trace_seed"]


def _resolve(w: "Workload | str") -> Workload:
    return lookup_workload(w) if isinstance(w, str) else w


def _stream(w: "Workload | str", seed: int) -> TraceStream:
    """A provenance-carrying trace stream for one workload (snapshot-ready)."""
    resolved = _resolve(w)
    return TraceStream(
        getattr(resolved, "name", str(w)), seed,
        _iterator=resolved.trace(seed),
    )


def derive_trace_seed(seed: int, core: int) -> int:
    """Per-core trace seed for multiprogrammed runs.

    Hash-derived so that distinct ``(seed, core)`` pairs can never collide
    (the historical ``seed * 16 + core`` scheme aliased e.g. ``(0, 16)``
    with ``(1, 0)``), and process-stable (no salted ``hash()``) so cache
    keys and parallel workers agree with serial runs.
    """
    payload = f"{seed}:{core}".encode()
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


def run_workload(
    w: "Workload | str",
    config: SystemConfig | None = None,
    instructions: int = 60_000,
    warmup_instructions: int = 30_000,
    seed: int = 0,
    warm_image=None,
    checkpoint_path=None,
    checkpoint_every: int = 50_000,
) -> SimResult:
    """Run one workload on a single-core system.

    ``warm_image`` is the :class:`~repro.sim.system.System` warm-image
    path (shared pre-warm state); ``checkpoint_path`` and
    ``checkpoint_every`` pass straight through to
    :meth:`repro.sim.system.System.run` (periodic checkpoints, which
    :meth:`~repro.sim.system.System.resume` continues). Both paths
    default to off.
    """
    config = config if config is not None else SystemConfig()
    config = replace(config, cores=1)
    system = System(config, [_stream(w, seed)], warm_image=warm_image)
    return system.run(
        instructions,
        warmup_instructions,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )


def run_mix(
    mix: "list[Workload | str]",
    config: SystemConfig | None = None,
    instructions: int = 40_000,
    warmup_instructions: int = 20_000,
    seed: int = 0,
    warm_image=None,
    checkpoint_path=None,
    checkpoint_every: int = 50_000,
) -> SimResult:
    """Run a multiprogrammed mix (one workload per core)."""
    config = config if config is not None else SystemConfig()
    config = replace(config, cores=len(mix))
    traces = [
        _stream(w, derive_trace_seed(seed, i)) for i, w in enumerate(mix)
    ]
    system = System(config, traces, warm_image=warm_image)
    return system.run(
        instructions,
        warmup_instructions,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )

