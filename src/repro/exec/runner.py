"""Parallel, fault-tolerant task execution.

:class:`ProcessPoolRunner` fans :class:`~repro.exec.task.TaskSpec` work
out over ``multiprocessing`` workers — one process per task attempt, so a
worker that segfaults, calls ``os._exit`` or hangs past its deadline
takes down *only its own task*: the runner reaps the corpse, journals
what happened, applies bounded exponential-backoff retries, and keeps the
rest of the campaign flowing. With ``jobs=1`` everything runs in-process
(no subprocesses, trivially debuggable) and produces identical results:
tasks are pure functions of their spec, so scheduling cannot change
outputs, only wall-clock.

Observers (journal, progress reporter — any ``(event, fields)`` callable)
receive ``task_start`` / ``task_done`` / ``task_retry`` / ``task_failed``
events as they happen. An ``on_outcome`` callback receives each task's
final outcome before its ``task_done`` / ``task_failed`` event, so a
caller can persist results while the rest of the batch still runs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass

from repro.exec.task import execute_task

__all__ = ["ProcessPoolRunner", "TaskOutcome", "retry_backoff"]

#: Parent poll cadence while waiting on workers (seconds).
_POLL_INTERVAL_S = 0.02
#: Grace period for joining a worker that already reported (seconds).
_JOIN_GRACE_S = 5.0


@dataclass
class TaskOutcome:
    """What happened to one task across all of its attempts."""

    spec: object
    result: object = None
    error: "str | None" = None
    attempts: int = 1
    duration_s: float = 0.0        # wall-clock of the final attempt
    timed_out: bool = False
    crashed: bool = False
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def _label(spec) -> str:
    return getattr(spec, "label", None) or repr(spec)


def _digest(spec) -> "str | None":
    digest = getattr(spec, "digest", None)
    return digest() if callable(digest) else None


def retry_backoff(spec, attempt: int, backoff_s: float) -> float:
    """Exponential backoff with decorrelated, *deterministic* jitter.

    The base schedule is ``backoff_s * 2**(attempt-1)``; the jitter
    multiplies it by a factor in ``[0.5, 1.0)`` derived by hashing the
    task's content digest together with the attempt number. Tasks retry
    on schedules that are decorrelated from one another — a batch of
    failures cannot stampede a shared store in lockstep — yet every
    journal records the exact same backoff for the same (task, attempt)
    on every run, so journals stay reproducible.
    """
    base = backoff_s * (2 ** (attempt - 1))
    key = _digest(spec) or _label(spec)
    draw = hashlib.blake2b(
        f"{key}:{attempt}".encode(), digest_size=8
    ).digest()
    fraction = int.from_bytes(draw, "big") / 2.0**64
    return base * (0.5 + 0.5 * fraction)


def _checkpoint_cycle(spec) -> "int | None":
    """Cycle of the spec's on-disk checkpoint, if a readable one exists.

    Used purely for observability (the ``task_resumed`` journal event);
    the actual resume decision lives in ``TaskSpec.run`` so it holds for
    any executor. Unreadable checkpoints report ``None`` — the run will
    discard them and start over.
    """
    path_fn = getattr(spec, "checkpoint_path", None)
    if not callable(path_fn):
        return None
    try:
        path = path_fn()
    except Exception:
        return None
    if path is None or not path.is_file():
        return None
    try:
        from repro.snapshot import read_header

        return read_header(path).get("cycle")
    except Exception:
        return None


def _worker_main(conn, fn, spec) -> None:
    """Child-process entry: run the task, ship the verdict, exit."""
    try:
        result = fn(spec)
    except BaseException as exc:
        message = ("error", f"{type(exc).__name__}: {exc}",
                   traceback.format_exc())
    else:
        message = ("ok", result, None)
    try:
        conn.send(message)
    except Exception:
        pass  # unpicklable result/exception: parent sees a silent death
    finally:
        conn.close()


@dataclass
class _Pending:
    index: int
    spec: object
    attempt: int
    not_before: float


@dataclass
class _Running:
    index: int
    spec: object
    attempt: int
    process: object
    conn: object
    started: float
    deadline: "float | None"


class ProcessPoolRunner:
    """Run tasks on a bounded worker pool with timeouts and retries.

    :param jobs: worker slots; ``1`` means serial in-process execution
        (no subprocesses — note per-task timeouts need worker processes
        and are not enforced serially). ``None`` uses the CPU count.
    :param timeout_s: per-attempt wall-clock budget; an overrunning
        worker is terminated and the attempt counts as a failure.
    :param retries: extra attempts after the first failure.
    :param backoff_s: base of the exponential retry backoff; the actual
        delay before attempt N+1 is :func:`retry_backoff` — the
        exponential schedule scaled by deterministic per-task jitter.
    :param observers: ``(event, fields)`` callables (journal, progress).
    """

    def __init__(
        self,
        jobs: "int | None" = None,
        timeout_s: "float | None" = None,
        retries: int = 2,
        backoff_s: float = 0.5,
        observers=(),
        start_method: "str | None" = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else os.cpu_count() or 1)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.observers = list(observers)
        self._on_outcome = None
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)

    # -- events ---------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        for observer in self.observers:
            observer(event, dict(fields))

    def _task_fields(self, index: int, spec, attempt: int) -> dict:
        return {
            "task": _label(spec),
            "digest": _digest(spec),
            "index": index,
            "attempt": attempt,
        }

    # -- public entry ----------------------------------------------------

    def run(
        self, specs, fn=execute_task, on_outcome=None,
    ) -> "list[TaskOutcome]":
        """Execute every spec; outcomes are returned in spec order.

        A failed task (retries exhausted) yields an outcome with
        ``ok=False`` — it never aborts the remaining tasks.
        ``on_outcome(i, outcome)`` receives each final outcome as soon
        as it is known.
        """
        specs = list(specs)
        if not specs:
            return []
        self._on_outcome = on_outcome
        if self.jobs == 1:
            return [
                self._run_one_serial(i, spec, fn)
                for i, spec in enumerate(specs)
            ]
        return self._run_parallel(specs, fn)

    def _finish(self, index: int, outcome: TaskOutcome) -> TaskOutcome:
        if self._on_outcome is not None:
            self._on_outcome(index, outcome)
        return outcome

    # -- serial path -----------------------------------------------------

    def _run_one_serial(self, index: int, spec, fn) -> TaskOutcome:
        max_attempts = self.retries + 1
        for attempt in range(1, max_attempts + 1):
            self._emit("task_start", **self._task_fields(index, spec, attempt))
            cycle = _checkpoint_cycle(spec)
            if cycle is not None:
                self._emit(
                    "task_resumed",
                    **self._task_fields(index, spec, attempt),
                    checkpoint_cycle=cycle,
                )
            started = time.monotonic()
            try:
                result = fn(spec)
            except Exception as exc:
                duration = time.monotonic() - started
                error = f"{type(exc).__name__}: {exc}"
                if attempt < max_attempts:
                    backoff = retry_backoff(spec, attempt, self.backoff_s)
                    self._emit(
                        "task_retry",
                        **self._task_fields(index, spec, attempt),
                        error=error, backoff_s=backoff,
                    )
                    time.sleep(backoff)
                    continue
                outcome = self._finish(
                    index, TaskOutcome(spec, None, error, attempt, duration)
                )
                self._emit(
                    "task_failed",
                    **self._task_fields(index, spec, attempt),
                    error=error, duration_s=round(duration, 6),
                )
                return outcome
            duration = time.monotonic() - started
            outcome = self._finish(
                index, TaskOutcome(spec, result, None, attempt, duration)
            )
            self._emit(
                "task_done",
                **self._task_fields(index, spec, attempt),
                duration_s=round(duration, 6),
            )
            return outcome
        raise AssertionError("unreachable")

    # -- parallel path ---------------------------------------------------

    def _run_parallel(self, specs, fn) -> "list[TaskOutcome]":
        outcomes: "list[TaskOutcome | None]" = [None] * len(specs)
        pending: "list[_Pending]" = [
            _Pending(i, spec, 1, 0.0) for i, spec in enumerate(specs)
        ]
        active: "list[_Running]" = []
        try:
            while pending or active:
                now = time.monotonic()
                progressed = self._launch_ready(pending, active, fn, now)
                progressed |= self._reap(pending, active, outcomes)
                if not progressed:
                    time.sleep(_POLL_INTERVAL_S)
        finally:
            for running in active:
                running.process.terminate()
                running.process.join(_JOIN_GRACE_S)
                running.conn.close()
        return outcomes  # type: ignore[return-value]

    def _launch_ready(self, pending, active, fn, now) -> bool:
        launched = False
        while len(active) < self.jobs:
            ready = next(
                (item for item in pending if item.not_before <= now), None
            )
            if ready is None:
                break
            pending.remove(ready)
            # Observe the checkpoint *before* the worker starts: the
            # worker consumes (and eventually deletes) it.
            cycle = _checkpoint_cycle(ready.spec)
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, fn, ready.spec),
                daemon=True,
            )
            process.start()
            child_conn.close()
            deadline = (
                now + self.timeout_s if self.timeout_s is not None else None
            )
            active.append(_Running(
                ready.index, ready.spec, ready.attempt, process,
                parent_conn, time.monotonic(), deadline,
            ))
            self._emit(
                "task_start",
                **self._task_fields(ready.index, ready.spec, ready.attempt),
                worker_pid=process.pid,
            )
            if cycle is not None:
                self._emit(
                    "task_resumed",
                    **self._task_fields(
                        ready.index, ready.spec, ready.attempt
                    ),
                    checkpoint_cycle=cycle,
                )
            launched = True
        return launched

    def _reap(self, pending, active, outcomes) -> bool:
        progressed = False
        for running in list(active):
            now = time.monotonic()
            message = self._poll_message(running)
            if message is not None:
                running.process.join(_JOIN_GRACE_S)
                self._retire(running, active)
                duration = now - running.started
                if message[0] == "ok":
                    self._succeed(running, message[1], duration, outcomes)
                else:
                    self._fail(
                        running, message[1], duration, pending, outcomes,
                        detail=message[2],
                    )
                progressed = True
            elif not running.process.is_alive():
                running.process.join(_JOIN_GRACE_S)
                # The message may have landed between the two checks.
                message = self._poll_message(running)
                self._retire(running, active)
                duration = now - running.started
                if message is not None and message[0] == "ok":
                    self._succeed(running, message[1], duration, outcomes)
                elif message is not None:
                    self._fail(
                        running, message[1], duration, pending, outcomes,
                        detail=message[2],
                    )
                else:
                    exitcode = running.process.exitcode
                    self._fail(
                        running,
                        f"worker died without reporting (exit code "
                        f"{exitcode})",
                        duration, pending, outcomes, crashed=True,
                    )
                progressed = True
            elif running.deadline is not None and now >= running.deadline:
                running.process.terminate()
                running.process.join(_JOIN_GRACE_S)
                if running.process.is_alive():
                    running.process.kill()
                    running.process.join(_JOIN_GRACE_S)
                self._retire(running, active)
                self._fail(
                    running,
                    f"timed out after {self.timeout_s:.1f}s",
                    now - running.started, pending, outcomes,
                    timed_out=True,
                )
                progressed = True
        return progressed

    @staticmethod
    def _poll_message(running):
        try:
            if running.conn.poll():
                return running.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    @staticmethod
    def _retire(running, active) -> None:
        active.remove(running)
        try:
            running.conn.close()
        except OSError:
            pass

    def _succeed(self, running, result, duration, outcomes) -> None:
        outcomes[running.index] = self._finish(running.index, TaskOutcome(
            running.spec, result, None, running.attempt, duration
        ))
        self._emit(
            "task_done",
            **self._task_fields(running.index, running.spec, running.attempt),
            duration_s=round(duration, 6),
        )

    def _fail(
        self, running, error, duration, pending, outcomes,
        timed_out=False, crashed=False, detail=None,
    ) -> None:
        if running.attempt <= self.retries:
            backoff = retry_backoff(
                running.spec, running.attempt, self.backoff_s
            )
            self._emit(
                "task_retry",
                **self._task_fields(
                    running.index, running.spec, running.attempt
                ),
                error=error, backoff_s=backoff,
                timed_out=timed_out, crashed=crashed,
            )
            pending.append(_Pending(
                running.index, running.spec, running.attempt + 1,
                time.monotonic() + backoff,
            ))
            return
        outcomes[running.index] = self._finish(running.index, TaskOutcome(
            running.spec, None, error, running.attempt, duration,
            timed_out=timed_out, crashed=crashed,
        ))
        self._emit(
            "task_failed",
            **self._task_fields(running.index, running.spec, running.attempt),
            error=error, duration_s=round(duration, 6),
            timed_out=timed_out, crashed=crashed, detail=detail,
        )
