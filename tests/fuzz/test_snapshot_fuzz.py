"""Property-based fuzzing of snapshot/restore equivalence.

The property the whole subsystem stands on, asserted over randomized
scenarios (workload mixes × mechanisms × CROW knobs × run lengths):
stop a checkpointing run right after its first checkpoint, at a random
cadence, resume it **in a fresh process** (``python -m repro snapshot
resume``, so nothing leaks through interpreter state — only the
container bytes cross over; it keeps checkpointing at that cadence),
and the final telemetry digest is byte-identical to the uninterrupted
run.

Example budgets are pinned (each example simulates twice plus one
subprocess); under ``HYPOTHESIS_PROFILE=ci`` the tests inherit the ci
profile's derandomization and ``print_blob`` (see tests/conftest.py).
"""

import dataclasses
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.check.scenarios import random_scenario
from repro.sim.sweep import derive_trace_seed
from repro.sim.system import System
from repro.trace.stream import TraceStream
from tests.conftest import stop_at_first_checkpoint

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _build(scenario):
    """One System for the scenario, telemetry attached for the digest."""
    config = dataclasses.replace(
        scenario.to_config("report"), telemetry=True
    )
    traces = [
        TraceStream(name, derive_trace_seed(scenario.seed, core))
        for core, name in enumerate(scenario.workloads)
    ]
    return System(config, traces)


def _run(scenario, system, **checkpoint_kwargs):
    return system.run(
        scenario.instructions,
        scenario.warmup_instructions,
        prewarm_accesses=10_000,
        **checkpoint_kwargs,
    )


def _resume_in_fresh_process(path):
    """Resume via the CLI in a child interpreter; return the digest."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "snapshot", "resume", str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    match = re.search(r"digest=(\w+)", proc.stdout)
    assert match, f"no digest in CLI output: {proc.stdout!r}"
    return match.group(1)


@given(case_seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.05, 0.95))
@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_scenario_snapshot_resumes_identically(case_seed, fraction):
    scenario = random_scenario(case_seed)
    note(f"scenario: {scenario.to_json()}")
    straight = _run(scenario, _build(scenario))
    digest = straight.telemetry_digest()
    assert digest is not None

    # Checkpoint strictly inside the run: the clock advances in
    # event-sized jumps, so the first checkpoint is written at the first
    # step that reaches the cadence.
    every = max(1, int(straight.cycles * fraction))
    note(f"checkpoint every {every} cycles; measured {straight.cycles}")
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "fuzz.ckpt"
        stop_at_first_checkpoint(
            _run, scenario, _build(scenario),
            checkpoint_path=ck, checkpoint_every=every,
        )
        assert _resume_in_fresh_process(ck) == digest
        assert not ck.exists()
