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

import dataclasses
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
        Each result is stored as soon as its task finishes, so an
        interrupted campaign keeps every task it completed.

        Cache misses that warm identical state (:func:`~repro.snapshot.
        warm.fork_groups`: mechanism variants of one workload, seed and
        config prefix) share it. Each group of two or more gets one warm
        image under ``<directory>/warm/``, announced by a ``warm_group``
        journal event. Its leader is queued first and writes the image
        from :meth:`System.prewarm <repro.sim.system.System.prewarm>`;
        the other members adopt it instead of re-warming, or, when they
        start before it exists, warm by themselves. A ``warm_follower``
        event after each member's ``task_start`` records whether the
        image was present. The images (and any a killed worker left half
        written) are removed when ``run`` returns. Results are
        byte-identical either way.
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
            queue, images = self._share_warm_state(misses)

            def launched(event: str, fields: dict) -> None:
                if event != "task_start":
                    return
                follows = queue[fields["index"]][3]
                if follows is not None:
                    self._emit(
                        "warm_follower", task=fields["task"],
                        image=str(follows), image_present=follows.is_file(),
                    )

            def finished(position: int, outcome: TaskOutcome) -> None:
                index, spec, _, _ = queue[position]
                outcome.spec = spec  # the caller's spec, image-free
                outcomes[index] = outcome
                if outcome.ok:
                    if not isinstance(outcome.result, SimResult):
                        raise ConfigError(
                            "campaign tasks must produce SimResult values"
                        )
                    self.campaign.store(self._path(spec), outcome.result)
                    self.misses += 1
                    self._emit_telemetry(spec, outcome.result, cached=False)

            self.runner.observers.append(launched)
            try:
                self.runner.run(
                    [run_spec for _, _, run_spec, _ in queue], _fn,
                    on_outcome=finished,
                )
            finally:
                self.runner.observers.remove(launched)
                for image in images:
                    image.unlink(missing_ok=True)
                    # a worker killed mid-write leaves write_warm_image's
                    # tmp sibling behind
                    for tmp in image.parent.glob(f"{image.name}.*.tmp"):
                        tmp.unlink(missing_ok=True)
                if images:
                    try:
                        images[0].parent.rmdir()
                    except OSError:
                        pass  # holds another campaign's image

        done = sum(1 for o in outcomes if o is not None and o.ok)
        failed = len(specs) - done
        self._emit(
            "campaign_end", total=len(specs), done=done, failed=failed,
            cache_hits=self.hits, wall_s=round(time.monotonic() - started, 3),
        )
        return outcomes  # type: ignore[return-value]

    def _share_warm_state(self, misses):
        """Plan warm-state sharing for the ``(index, spec)`` cache misses.

        Returns the run queue — group leaders first, then the rest in
        spec order — as ``(index, spec, run_spec, follows)`` entries,
        where ``run_spec`` carries the group's image path and
        ``follows`` is the image a follower adopts, plus the image
        paths in use.
        """
        from repro.snapshot.warm import fork_groups

        warm_dir = self.campaign.directory / "warm"
        shared: "dict[int, Path]" = {}
        leaders: "list[int]" = []
        for group in fork_groups([spec for _, spec in misses]):
            if len(group.indices) < 2:
                continue
            image = warm_dir / group.filename
            leaders.append(group.indices[0])
            shared.update(dict.fromkeys(group.indices, image))
            _, sample = misses[group.indices[0]]
            self._emit(
                "warm_group",
                image=str(image),
                warm_digest=group.warm_digest,
                leader=sample.label,
                tasks=len(group.indices),
                kind=sample.kind,
                workloads=list(sample.names),
                seed=sample.seed,
            )
        first = set(leaders)
        queue = []
        for position in leaders + [
            p for p in range(len(misses)) if p not in first
        ]:
            index, spec = misses[position]
            image = shared.get(position)
            if image is None:
                queue.append((index, spec, spec, None))
                continue
            run_spec = dataclasses.replace(spec, warm_image=str(image))
            follows = None if position in first else image
            queue.append((index, spec, run_spec, follows))
        return queue, sorted(set(shared.values()))

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
