"""Disk-cached experiment campaigns: keys and the result store.

Figure-level studies re-run many (configuration, workload) pairs, and the
baseline runs repeat across figures. :class:`Campaign` keeps their
:class:`~repro.sim.metrics.SimResult` values on disk, keyed by a stable
digest of the configuration, the workload names, the seeds and the run
lengths — so iterating on an experiment script only pays for the runs
whose inputs actually changed. :class:`~repro.exec.parallel.
ParallelCampaign` is the runner in front of it (``jobs=1`` runs
in-process).

Every simulation in this package is deterministic given its inputs, which
is what makes result caching sound.

The keying helpers (:func:`config_digest`, :func:`task_digest`,
:func:`cache_filename`) are module-level and process-stable on purpose:
:mod:`repro.exec` names cache entries and journal events with them, and
snapshot headers record :func:`config_digest`. They key the *inputs*
only; an entry is stored in the :mod:`repro.snapshot.container` format,
whose code fingerprint makes a result computed by other code a miss.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import SnapshotError
from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.keying import jsonable

__all__ = [
    "Campaign",
    "config_digest",
    "task_digest",
    "cache_filename",
]


def config_digest(config: SystemConfig) -> str:
    """Process-stable digest of a :class:`SystemConfig`'s values.

    It names the inputs only, never the code: which code wrote a cache
    entry, warm image or snapshot is the container's fingerprint. The
    inert ``engine`` field is excluded, so configs that name an engine
    and configs predating the field share one digest.
    """
    projection = jsonable(config)
    projection.pop("engine", None)
    encoded = json.dumps(projection, sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()[:20]


def task_digest(
    kind: str,
    names: tuple[str, ...],
    config: SystemConfig,
    instructions: int,
    warmup_instructions: int,
    seed: int,
) -> str:
    """Digest identifying one (kind, workloads, config, lengths, seed) run."""
    return hashlib.sha256(
        json.dumps(
            [kind, list(names), config_digest(config), instructions,
             warmup_instructions, seed],
            sort_keys=True,
        ).encode()
    ).hexdigest()[:24]


def cache_filename(
    kind: str,
    names: tuple[str, ...],
    config: SystemConfig,
    instructions: int,
    warmup_instructions: int,
    seed: int,
) -> str:
    """The cache file name a run of these inputs is stored under."""
    digest = task_digest(
        kind, names, config, instructions, warmup_instructions, seed
    )
    return f"{kind}-{'_'.join(names)[:48]}-{digest}.pkl"


class Campaign:
    """A directory-backed store of simulation results.

    Only the disk layer lives here: :class:`~repro.exec.parallel.
    ParallelCampaign` decides what to run, names each entry with
    :meth:`TaskSpec.cache_filename <repro.exec.task.TaskSpec.cache_filename>`
    and counts hits and misses.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def load_cached(self, path: Path) -> SimResult | None:
        """Return the cached result at ``path``, or ``None`` on a miss.

        An entry the container refuses (missing, torn by a killed
        process, or written by other code, whose result the current code
        might not reproduce) or that is not a :class:`SimResult` counts
        as a miss: the file is removed so the slot can be rewritten
        cleanly.
        """
        from repro.snapshot.container import read_snapshot

        try:
            _, result = read_snapshot(path)
        except (SnapshotError, OSError):
            result = None
        if not isinstance(result, SimResult):
            path.unlink(missing_ok=True)
            return None
        return result

    def store(self, path: Path, result: SimResult) -> None:
        """Atomically persist ``result`` at ``path`` (see
        :func:`~repro.snapshot.container.write_snapshot`): a killed
        writer never leaves a torn entry, and concurrent writers of the
        same (identical, deterministic) result cannot interleave."""
        from repro.snapshot.container import write_snapshot

        write_snapshot(path, {"kind": "result"}, result)
