"""Tests for the parallel runner: retries, timeouts, crash isolation."""

import os
import time
from pathlib import Path

import pytest

from repro import SystemConfig
from repro.errors import ConfigError
from repro.exec import ProcessPoolRunner, TaskSpec, execute_task

FAST = dict(retries=1, backoff_s=0.01)


def _spec(seed=0, payload="task"):
    """A TaskSpec used purely as a work token for toy functions (the
    ``names`` slot smuggles a filesystem path to the flaky helpers)."""
    return TaskSpec(
        kind="wl", names=(payload,), config=SystemConfig(),
        instructions=1_000, warmup_instructions=200, seed=seed,
    )


# Toy task functions (module-level: they cross the fork boundary).

def _double(spec):
    return spec.seed * 2


def _boom(spec):
    raise RuntimeError(f"boom-{spec.seed}")


def _fail_until_marker(spec):
    marker = Path(spec.names[0])
    if marker.exists():
        return "recovered"
    marker.touch()
    raise RuntimeError("first attempt always fails")


def _hard_crash(spec):
    os._exit(41)


def _sleep_forever(spec):
    time.sleep(60)


def _mixed(spec):
    if spec.seed == 0:
        os._exit(41)
    if spec.seed == 1:
        time.sleep(60)
    return spec.seed * 2


class TestSerial:
    def test_results_in_task_order(self):
        runner = ProcessPoolRunner(jobs=1, **FAST)
        outcomes = runner.run([_spec(seed=i) for i in range(4)], fn=_double)
        assert [o.result for o in outcomes] == [0, 2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_retry_then_succeed(self, tmp_path):
        runner = ProcessPoolRunner(jobs=1, **FAST)
        outcomes = runner.run(
            [_spec(payload=str(tmp_path / "marker"))], fn=_fail_until_marker
        )
        assert outcomes[0].ok
        assert outcomes[0].result == "recovered"
        assert outcomes[0].attempts == 2

    def test_retries_exhausted(self):
        events = []
        runner = ProcessPoolRunner(
            jobs=1, retries=2, backoff_s=0.01,
            observers=[lambda e, f: events.append(e)],
        )
        outcomes = runner.run([_spec(seed=9)], fn=_boom)
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3
        assert "RuntimeError: boom-9" in outcomes[0].error
        assert events.count("task_retry") == 2
        assert events.count("task_failed") == 1

    def test_failure_does_not_sink_following_tasks(self):
        runner = ProcessPoolRunner(jobs=1, retries=0, backoff_s=0.01)
        outcomes = runner.run(
            [_spec(seed=0), _spec(seed=1), _spec(seed=2)],
            fn=lambda s: _boom(s) if s.seed == 1 else _double(s),
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[2].result == 4


class TestParallel:
    def test_results_in_task_order(self):
        runner = ProcessPoolRunner(jobs=3, **FAST)
        outcomes = runner.run([_spec(seed=i) for i in range(6)], fn=_double)
        assert [o.result for o in outcomes] == [0, 2, 4, 6, 8, 10]

    def test_retry_then_succeed_across_processes(self, tmp_path):
        runner = ProcessPoolRunner(jobs=2, **FAST)
        outcomes = runner.run(
            [_spec(payload=str(tmp_path / "marker"))], fn=_fail_until_marker
        )
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2

    def test_worker_crash_is_isolated_and_reported(self):
        events = []
        runner = ProcessPoolRunner(
            jobs=2, retries=1, backoff_s=0.01,
            observers=[lambda e, f: events.append((e, f))],
        )
        outcomes = runner.run(
            [_spec(seed=0), _spec(seed=2), _spec(seed=3)], fn=_mixed
        )
        crash = outcomes[0]
        assert not crash.ok and crash.crashed
        assert "exit code 41" in crash.error
        assert crash.attempts == 2  # the crash was retried once
        # ...and the healthy tasks completed regardless.
        assert outcomes[1].result == 4
        assert outcomes[2].result == 6
        retried = [f for e, f in events if e == "task_retry"]
        assert retried and retried[0]["crashed"]

    def test_timeout_kills_the_worker(self):
        runner = ProcessPoolRunner(
            jobs=2, retries=0, backoff_s=0.01, timeout_s=0.5
        )
        started = time.monotonic()
        outcomes = runner.run(
            [_spec(seed=1), _spec(seed=5)], fn=_mixed
        )
        wall = time.monotonic() - started
        assert not outcomes[0].ok and outcomes[0].timed_out
        assert "timed out" in outcomes[0].error
        assert outcomes[1].result == 10
        assert wall < 30  # the sleeping worker did not run to completion

    def test_timeout_kills_the_worker_at_one_job(self):
        """A timeout needs a worker to kill, so ``jobs=1`` with a budget
        runs each attempt in one worker slot instead of in-process."""
        runner = ProcessPoolRunner(
            jobs=1, retries=0, backoff_s=0.01, timeout_s=0.2
        )
        started = time.monotonic()
        outcomes = runner.run([_spec(seed=1), _spec(seed=5)], fn=_mixed)
        wall = time.monotonic() - started
        assert not outcomes[0].ok and outcomes[0].timed_out
        assert "timed out" in outcomes[0].error
        assert outcomes[1].result == 10
        assert wall < 30  # the sleeping worker did not run to completion

    @pytest.mark.parametrize("timeout_s", [0, 0.0, -1.0, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout_s):
        # A zero budget would kill every worker at launch.
        with pytest.raises(ConfigError, match="timeout_s"):
            ProcessPoolRunner(jobs=2, timeout_s=timeout_s)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(jobs=0), "jobs"),
            (dict(jobs=-3), "jobs"),
            (dict(retries=-5), "retries"),
            (dict(backoff_s=-1.0), "backoff_s"),
            (dict(backoff_s=float("nan")), "backoff_s"),
        ],
    )
    def test_out_of_range_knobs_rejected(self, kwargs, name):
        # Clamping would run with a setting nobody asked for; a negative
        # backoff would raise from time.sleep on the first retry.
        with pytest.raises(ConfigError, match=name):
            ProcessPoolRunner(**{"jobs": 1, **kwargs})

    def test_none_jobs_uses_the_cpu_count(self):
        assert ProcessPoolRunner(jobs=None).jobs == (os.cpu_count() or 1)

    def test_serial_and_parallel_results_are_identical(self):
        """Tasks are pure functions of their spec: worker-process
        execution must reproduce the in-process result exactly (every
        SimResult field, including nested energy/stat structures —
        dataclass equality is field-complete)."""
        specs = [
            TaskSpec.workload(
                "libq", SystemConfig(), instructions=2_000,
                warmup_instructions=500,
            ),
            TaskSpec.workload(
                "h264-dec", SystemConfig(mechanism="crow-cache"),
                instructions=2_000, warmup_instructions=500,
            ),
        ]
        serial = ProcessPoolRunner(jobs=1, **FAST).run(specs, fn=execute_task)
        parallel = ProcessPoolRunner(jobs=2, **FAST).run(
            specs, fn=execute_task
        )
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.result == p.result
            assert vars(s.result).keys() == vars(p.result).keys()


class TestObservers:
    def test_event_stream_schema(self):
        events = []
        runner = ProcessPoolRunner(
            jobs=2, **FAST, observers=[lambda e, f: events.append((e, f))]
        )
        runner.run([_spec(seed=4)], fn=_double)
        names = [e for e, _ in events]
        assert names == ["task_start", "task_done"]
        start, done = (f for _, f in events)
        assert start["task"] == done["task"]
        assert start["digest"] == done["digest"]
        assert done["duration_s"] >= 0


class TestOutcomeCallback:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outcome_callback_precedes_its_final_event(self, jobs):
        log = []
        runner = ProcessPoolRunner(
            jobs=jobs, retries=0,
            observers=[lambda e, f: log.append((e, f["index"]))],
        )
        runner.run(
            [_spec(seed=0), _spec(seed=1)],
            fn=lambda spec: _boom(spec) if spec.seed else 0,
            on_outcome=lambda index, o: log.append(("outcome", index, o.ok)),
        )
        for index, ok, final in ((0, True, "task_done"),
                                 (1, False, "task_failed")):
            assert log.index(("outcome", index, ok)) + 1 == log.index(
                (final, index)
            )


class TestRetryBackoff:
    """Deterministic decorrelated jitter on the retry schedule."""

    def test_deterministic_for_same_task_and_attempt(self):
        from repro.exec import retry_backoff

        spec = _spec(seed=3)
        draws = {retry_backoff(spec, 2, 1.0) for _ in range(10)}
        assert len(draws) == 1

    def test_jitter_stays_within_half_open_band(self):
        from repro.exec import retry_backoff

        for attempt in (1, 2, 3, 4):
            base = 0.25 * (2 ** (attempt - 1))
            delay = retry_backoff(_spec(seed=7), attempt, 0.25)
            assert base * 0.5 <= delay < base

    def test_schedule_grows_exponentially(self):
        from repro.exec import retry_backoff

        spec = _spec(seed=1)
        delays = [retry_backoff(spec, a, 1.0) for a in (1, 2, 3, 4)]
        # Jitter never cancels the doubling: band [0.5b, b) for base b.
        assert all(late > early for early, late in zip(delays, delays[1:]))

    def test_decorrelated_across_tasks_and_attempts(self):
        from repro.exec import retry_backoff

        specs = [_spec(seed=s) for s in range(6)]
        same_attempt = {retry_backoff(s, 1, 1.0) for s in specs}
        assert len(same_attempt) == len(specs)  # no stampede in lockstep
        one_spec = {
            retry_backoff(specs[0], a, 1.0) / (2 ** (a - 1))
            for a in (1, 2, 3, 4)
        }
        assert len(one_spec) == 4  # fresh draw per attempt, not scaled
