"""Cache-aware parallel campaigns.

:class:`ParallelCampaign` composes the :class:`~repro.sim.campaign.Campaign`
disk cache with the :class:`~repro.exec.runner.ProcessPoolRunner`:
completed tasks are served straight from cache, and only the misses are
fanned out to worker processes. Because tasks are content-addressed (see
:meth:`TaskSpec.digest`) and every simulation is a pure function of its
spec, a campaign produces *exactly* the same cache entries and results
at any job count — scheduling changes wall-clock, never values.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.errors import ConfigError
from repro.exec.journal import RunJournal
from repro.exec.progress import ProgressReporter
from repro.exec.runner import ProcessPoolRunner, TaskOutcome
from repro.exec.task import TaskSpec, execute_task
from repro.sim.campaign import Campaign
from repro.sim.metrics import SimResult

__all__ = ["ParallelCampaign"]


class ParallelCampaign:
    """Run a list of :class:`TaskSpec` through cache + worker pool.

    :param directory: :class:`~repro.sim.campaign.Campaign` cache
        directory, readable at any job count.
    :param jobs: worker slots (``1`` = serial in-process fallback).
    :param timeout_s: per-attempt wall-clock budget (parallel runs only).
    :param retries: extra attempts per task after the first failure.
    :param journal: path of a JSONL run journal to append to, or ``None``.
    :param progress: attach a live terminal progress/ETA reporter.
    """

    def __init__(
        self,
        directory: "str | Path",
        jobs: "int | None" = None,
        timeout_s: "float | None" = None,
        retries: int = 2,
        backoff_s: float = 0.5,
        journal: "str | Path | None" = None,
        progress: bool = False,
        observers=(),
    ) -> None:
        self.campaign = Campaign(directory)
        self.hits = 0
        self.misses = 0
        self.observers = list(observers)
        self._journal: "RunJournal | None" = None
        if journal is not None:
            self._journal = RunJournal(journal)
            self.observers.append(self._journal)
        if progress:
            self.observers.append(ProgressReporter(jobs=jobs or 1))
        self.runner = ProcessPoolRunner(
            jobs=jobs,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            observers=self.observers,
        )

    # -- cache bookkeeping ----------------------------------------------

    def _path(self, spec: TaskSpec) -> Path:
        return self.campaign.directory / spec.cache_filename()

    def _emit(self, event: str, **fields) -> None:
        for observer in self.observers:
            observer(event, dict(fields))

    def _emit_telemetry(self, spec: TaskSpec, result, cached: bool) -> None:
        """Journal a per-task telemetry summary (digest + headline)."""
        from repro.telemetry.summary import headline_summary

        summary = headline_summary(result)
        if summary is None:
            return
        self._emit(
            "task_telemetry",
            task=spec.label,
            digest=spec.digest(),
            cached=cached,
            **summary,
        )

    # -- execution -------------------------------------------------------

    def run(self, specs, _fn=execute_task) -> "list[TaskOutcome]":
        """Execute every spec; outcomes are returned in spec order.

        Cached tasks never reach the pool. Failed tasks (retries
        exhausted, including worker crashes and timeouts) yield
        ``ok=False`` outcomes without aborting the rest of the campaign.
        """
        specs = list(specs)
        started = time.monotonic()
        self._emit(
            "campaign_start", total=len(specs), jobs=self.runner.jobs,
            directory=str(self.campaign.directory),
        )
        outcomes: "list[TaskOutcome | None]" = [None] * len(specs)
        misses: "list[tuple[int, TaskSpec]]" = []
        for index, spec in enumerate(specs):
            cached = self.campaign.load_cached(self._path(spec))
            if cached is not None:
                self.hits += 1
                outcomes[index] = TaskOutcome(
                    spec, cached, None, attempts=0, cached=True
                )
                self._emit(
                    "cache_hit", task=spec.label, digest=spec.digest(),
                    index=index,
                )
                self._emit_telemetry(spec, cached, cached=True)
            else:
                misses.append((index, spec))

        if misses:
            ran = self.runner.run([spec for _, spec in misses], _fn)
            for (index, spec), outcome in zip(misses, ran):
                outcomes[index] = outcome
                if outcome.ok:
                    if not isinstance(outcome.result, SimResult):
                        raise ConfigError(
                            "campaign tasks must produce SimResult values"
                        )
                    self.campaign.store(self._path(spec), outcome.result)
                    self.misses += 1
                    self._emit_telemetry(spec, outcome.result, cached=False)

        done = sum(1 for o in outcomes if o is not None and o.ok)
        failed = len(specs) - done
        self._emit(
            "campaign_end", total=len(specs), done=done, failed=failed,
            cache_hits=self.hits, wall_s=round(time.monotonic() - started, 3),
        )
        return outcomes  # type: ignore[return-value]

    def run_forked(
        self,
        specs,
        warm_dir: "str | Path",
        prewarm_accesses: int = 200_000,
        _fn=execute_task,
    ) -> "list[TaskOutcome]":
        """Like :meth:`run`, but fork mechanism variants from warm images.

        Cache-miss specs are grouped by warm-compatibility key — the
        :func:`repro.snapshot.warmup_digest` of their config plus the
        trace identity (kind, workloads, seed). Each group's functional
        pre-warm runs **once** (serially, before the fan-out) and is
        persisted as a warm image in ``warm_dir``; every member then
        forks from that image instead of re-warming. A ``warm_fork``
        journal event records the image, the build wall-clock and the
        fork count. Groups of one spec with no pre-built image gain
        nothing from forking and run cold. Results and telemetry digests
        are identical to :meth:`run`'s either way.
        """
        import dataclasses

        from repro.snapshot.warm import build_warm_image, fork_groups

        specs = list(specs)
        warm_dir = Path(warm_dir)
        prepared: "list[TaskSpec]" = list(specs)
        miss_indices = [
            index for index, spec in enumerate(specs)
            if self.campaign.load_cached(self._path(spec)) is None
        ]  # cache hits are served by run(); no warm-up needed

        misses = [specs[i] for i in miss_indices]
        for group in fork_groups(misses, prewarm_accesses):
            image = warm_dir / group.filename
            members = [miss_indices[i] for i in group.indices]
            if not image.is_file() and len(members) < 2:
                continue  # nothing shared to amortize: run cold
            sample = specs[members[0]]
            warm_s = 0.0
            if not image.is_file():
                started = time.monotonic()
                build_warm_image(
                    image, sample.names, sample.config, seed=sample.seed,
                    kind=sample.kind, prewarm_accesses=prewarm_accesses,
                )
                warm_s = round(time.monotonic() - started, 3)
            self._emit(
                "warm_fork",
                warm_digest=group.warm_digest,
                image=str(image),
                forks=len(members),
                warm_s=warm_s,
                kind=sample.kind,
                workloads=list(sample.names),
                seed=sample.seed,
            )
            for index in members:
                prepared[index] = dataclasses.replace(
                    specs[index], warm_image=str(image)
                )
        return self.run(prepared, _fn)

    def results(self, specs, _fn=execute_task) -> "list[SimResult]":
        """Like :meth:`run`, but unwrap results and fail loudly.

        Raises :class:`ConfigError` listing every task that exhausted its
        retries; use :meth:`run` to handle partial completion yourself.
        """
        outcomes = self.run(specs, _fn)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            summary = "; ".join(
                f"{_spec_label(o.spec)}: {o.error}" for o in failures[:5]
            )
            raise ConfigError(
                f"{len(failures)} campaign task(s) failed after retries: "
                f"{summary}"
            )
        return [o.result for o in outcomes]

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "ParallelCampaign":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _spec_label(spec) -> str:
    return getattr(spec, "label", None) or repr(spec)
