"""Deterministic checkpoint/restore and warm-state forking.

This package provides the storage substrate for three features:

- **Checkpoint/resume** — :meth:`repro.sim.system.System.save_snapshot`
  pickles the complete simulation state (cores, LLC, controller
  queues, DRAM bank state, CROW tables, the event heap, telemetry, the
  protocol checkers) into one versioned container;
  :meth:`System.restore` unpickles an equivalent system and
  :meth:`System.resume` continues an interrupted run to completion with
  a telemetry digest identical to the uninterrupted run.
- **Shared warm state** — :mod:`repro.snapshot.warm` names and stores
  the mechanism-invariant functional pre-warm state, so a campaign warms
  each distinct state once and its mechanism variants adopt it instead
  of re-warming (:func:`warmup_digest` guards compatibility).
- **Inspection** — ``python -m repro snapshot`` (inspect/verify/diff/
  resume) works off :func:`read_header` / :func:`read_snapshot`; a diff
  compares the :func:`state_tree` projections of two payloads, so it
  names every differing field by its attribute path.

Design rule: ``pickle`` is the only serializer of live simulator state.
A full snapshot pickles the ``System`` object graph as it stands —
wiring, memos and all — so no component re-describes its fields, and a
field cannot be forgotten. What the graph holds must therefore be
picklable: completion callbacks are objects or bound methods, never
closures, and a :class:`~repro.trace.TraceStream` pickles its trace
producer (RNG and pattern state) with the current chunk, so restoring it
regenerates nothing.
"""

from repro.snapshot.container import (
    FORMAT_VERSION,
    MAGIC,
    read_header,
    read_snapshot,
    write_snapshot,
)
from repro.snapshot.tree import state_tree
from repro.snapshot.warm import warmup_digest

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "read_header",
    "read_snapshot",
    "write_snapshot",
    "state_tree",
    "warmup_digest",
]
