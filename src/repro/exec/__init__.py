"""Parallel, fault-tolerant experiment execution engine.

Every figure in the reproduction is a sweep of independent
(configuration, workload) simulations. This package turns such sweeps
into first-class campaigns:

* :class:`TaskSpec` — one deterministic simulation described by value,
  with a process-stable content digest (the cache key);
* :class:`ProcessPoolRunner` — bounded ``multiprocessing`` fan-out with
  per-task timeouts, bounded retries with exponential backoff, and crash
  isolation (a dying worker fails its task, not the campaign);
* :class:`RunJournal` / :class:`ProgressReporter` — an append-only JSONL
  event log and a live progress/ETA line, both fed by the same stream of
  engine events;
* :class:`ParallelCampaign` — the runner composed with the
  :class:`~repro.sim.campaign.Campaign` disk cache: hits are read back,
  only misses reach the pool, and results (and their telemetry
  digests) are identical at any job count (``jobs=1`` runs in-process).
  Cache files need not be byte-identical: a result that crosses the
  process boundary is pickled again.

Quickstart::

    from repro import SystemConfig
    from repro.exec import ParallelCampaign, TaskSpec

    tasks = [
        TaskSpec.workload(name, SystemConfig(mechanism=m))
        for name in ("libq", "mcf", "h264-dec")
        for m in ("baseline", "crow-cache")
    ]
    with ParallelCampaign("results/cache", jobs=4, progress=True) as pc:
        results = pc.results(tasks)
"""

from repro.exec.journal import RunJournal, read_journal
from repro.exec.parallel import ParallelCampaign
from repro.exec.progress import ProgressReporter
from repro.exec.runner import (
    ProcessPoolRunner,
    TaskOutcome,
    retry_backoff,
)
from repro.exec.task import TaskSpec, execute_task

__all__ = [
    "TaskSpec",
    "execute_task",
    "ProcessPoolRunner",
    "TaskOutcome",
    "retry_backoff",
    "ParallelCampaign",
    "RunJournal",
    "read_journal",
    "ProgressReporter",
]
