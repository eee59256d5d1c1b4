"""Shared pytest configuration: hypothesis profiles.

Two registered profiles:

* ``dev`` (default) — a small example budget so the property/fuzz tests
  stay fast during local iteration.
* ``ci`` — derandomized (fixed seed, so every CI run fuzzes the same
  scenario sequence and failures reproduce locally), a larger example
  budget, and no deadline (shared CI runners have noisy clocks). The
  printed ``@reproduce_failure`` blob plus the scenario JSON a failing
  fuzz test prints are enough to replay any counterexample.

Select with ``HYPOTHESIS_PROFILE=ci`` (the CI workflow does). Tests that
pin ``max_examples`` via their own ``@settings`` keep their explicit
budgets under either profile.
"""

import os

from hypothesis import settings

settings.register_profile(
    "ci",
    max_examples=200,
    derandomize=True,
    deadline=None,
    print_blob=True,
)
settings.register_profile(
    "dev",
    max_examples=20,
    deadline=None,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


class _CheckpointWritten(Exception):
    """Raised right after a run's first checkpoint is on disk."""


def stop_at_first_checkpoint(run, *args, **kwargs) -> dict:
    """Call ``run(*args, **kwargs)``, a run given a ``checkpoint_path``
    (``System.run``, ``run_workload``, ``run_mix``, ``TaskSpec.run``),
    and stop it right after it writes its first checkpoint, as a SIGKILL
    would; returns that checkpoint's header.

    The file is the one production writes, so a test resumes it the way
    a killed campaign does. The run must reach a checkpoint: one that
    completes first fails the calling test.
    """
    from repro.sim.system import System
    from repro.snapshot import read_header

    save = System.save_snapshot
    written = []

    def save_then_stop(system, path):
        save(system, path)
        written.append(path)
        raise _CheckpointWritten

    System.save_snapshot = save_then_stop
    try:
        run(*args, **kwargs)
    except _CheckpointWritten:
        return read_header(written[0])
    finally:
        System.save_snapshot = save
    raise AssertionError("the run completed before its first checkpoint")
