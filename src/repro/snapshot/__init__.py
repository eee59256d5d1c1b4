"""One container for every persistent artifact, checkpoint/resume and
warm-state forking.

:mod:`repro.snapshot.container` alone reads and writes the files that
hold pickled state — campaign result-cache entries, warm images and
snapshots — uncompressed, stamped with the
:func:`~repro.keying.code_fingerprint` of the code that wrote them. A
file of other code is refused before unpickling, and each caller treats
that as a miss (recompute, or rerun a checkpoint from cycle 0). On top
of it the package provides three features:

- **Checkpoint/resume** — a :meth:`repro.sim.system.System.run` given
  a checkpoint path pickles the ``System`` alone (cores, LLC,
  controller queues, DRAM bank state, CROW tables, the event heap,
  telemetry, the protocol checkers and the run's loop parameters) into
  one versioned container every ``checkpoint_every`` cycles, the only
  way to stop a run; :meth:`System.resume` unpickles it and continues
  the run to completion, checkpointing into the file it was loaded
  from, with a telemetry digest identical to the uninterrupted run.
- **Shared warm state** — :mod:`repro.snapshot.warm` names and groups
  the mechanism-invariant functional pre-warm state, so a campaign warms
  each distinct state once and its mechanism variants adopt it instead
  of re-warming (:func:`warmup_digest` guards compatibility).
- **Inspection** — ``python -m repro snapshot`` (inspect/verify/diff/
  resume) reads any container with :func:`read_header` /
  :func:`read_snapshot`; a diff
  compares the :func:`state_tree` projections of two payloads, so it
  names every differing field by its attribute path.

Design rule: ``pickle`` is the only serializer of live simulator state.
A checkpoint pickles the ``System`` object graph as it stands —
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
    verify_snapshot,
    write_snapshot,
)
from repro.snapshot.tree import state_tree
from repro.snapshot.warm import warmup_digest

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "read_header",
    "read_snapshot",
    "verify_snapshot",
    "write_snapshot",
    "state_tree",
    "warmup_digest",
]
