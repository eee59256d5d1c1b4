"""Deterministic checkpoint/restore and warm-state forking.

This package provides the storage substrate for three features:

- **Checkpoint/resume** — :meth:`repro.sim.system.System.save_snapshot`
  serializes the complete simulation state (cores, LLC, controller
  queues, DRAM bank state, CROW tables, the event heap, telemetry, the
  protocol checkers) into one versioned container;
  :meth:`System.restore` rebuilds a byte-equivalent system and
  :meth:`System.resume` continues an interrupted run to completion with
  a telemetry digest identical to the uninterrupted run.
- **Shared warm state** — :mod:`repro.snapshot.warm` names and stores
  the mechanism-invariant functional pre-warm state, so a campaign warms
  each distinct state once and its mechanism variants adopt it instead
  of re-warming (:func:`warmup_digest` guards compatibility).
- **Inspection** — ``python -m repro snapshot`` (inspect/verify/diff/
  resume) works off :func:`read_header` / :func:`read_snapshot`.

Design rule: every stateful component exposes ``state_dict()`` /
``load_state_dict()`` returning plain value data — no component
references, no closures. Restoring always goes through ordinary
``System(config, traces)`` construction (fully deterministic) followed
by a wholesale state overwrite, so construction-time wiring (observer
hooks, bound-method callbacks) never needs to be serialized.
"""

from repro.snapshot.container import (
    FORMAT_VERSION,
    MAGIC,
    read_header,
    read_snapshot,
    write_snapshot,
)
from repro.snapshot.warm import warmup_digest

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "read_header",
    "read_snapshot",
    "write_snapshot",
    "warmup_digest",
]
