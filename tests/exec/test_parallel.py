"""Tests for ParallelCampaign: job-count parity, faults, journaling."""

import os
from pathlib import Path

import pytest

from repro import SystemConfig
from repro.errors import ConfigError
from repro.exec import (
    ParallelCampaign,
    RunJournal,
    TaskSpec,
    read_journal,
)
from repro.snapshot import read_snapshot

RUN = dict(instructions=2_000, warmup_instructions=500)
MIX_RUN = dict(instructions=1_500, warmup_instructions=400)


def _specs():
    return [
        TaskSpec.workload("libq", SystemConfig(), **RUN),
        TaskSpec.workload(
            "h264-dec", SystemConfig(mechanism="crow-cache"), **RUN
        ),
        TaskSpec.mix(["libq", "bzip2"], SystemConfig(cores=2), **MIX_RUN),
    ]


def _fail_until_marker(spec):
    """Injected fault: the marked task fails its first attempt."""
    marker = Path(os.environ["REPRO_TEST_MARKER"])
    if spec.kind == "wl" and spec.names[0] == "libq" and not marker.exists():
        marker.touch()
        raise RuntimeError("injected worker fault")
    return spec.run()


def _always_fail(spec):
    raise RuntimeError("unrecoverable")


class TestSerialParallelParity:
    def test_parallel_matches_serial_campaign_exactly(self, tmp_path):
        """jobs=4 must produce the same cache keys and identical results
        as the in-process jobs=1 run (the acceptance criterion; dataclass
        equality is field-complete, covering every metric)."""
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial = ParallelCampaign(serial_dir, jobs=1, retries=0)
        serial_results = serial.results(_specs())
        parallel = ParallelCampaign(parallel_dir, jobs=4, retries=0)
        parallel_results = parallel.results(_specs())

        # Same cache keys on disk...
        assert sorted(p.name for p in serial_dir.glob("*.pkl")) == \
            sorted(p.name for p in parallel_dir.glob("*.pkl"))
        # ...same metrics in memory...
        for s, p in zip(serial_results, parallel_results):
            assert s == p
        # ...and either cache deserializes to the other's values.
        for name in (p.name for p in serial_dir.glob("*.pkl")):
            _, a = read_snapshot(serial_dir / name)
            _, b = read_snapshot(parallel_dir / name)
            assert a == b
        # Each job count reads the other's cache as all hits.
        for directory, jobs in ((serial_dir, 4), (parallel_dir, 1)):
            reader = ParallelCampaign(directory, jobs=jobs)
            assert reader.results(_specs()) == serial_results
            assert reader.hits == len(_specs()) and reader.misses == 0

    def test_parallel_reads_serial_cache(self, tmp_path):
        ParallelCampaign(tmp_path, jobs=1).results([_specs()[0]])
        parallel = ParallelCampaign(tmp_path, jobs=2)
        outcomes = parallel.run([_specs()[0]])
        assert outcomes[0].cached
        assert parallel.hits == 1 and parallel.misses == 0

    def test_second_run_is_all_cache_hits(self, tmp_path):
        specs = _specs()
        first = ParallelCampaign(tmp_path, jobs=2)
        first.run(specs)
        assert first.misses == len(specs)
        second = ParallelCampaign(tmp_path, jobs=2)
        outcomes = second.run(specs)
        assert all(o.cached for o in outcomes)
        assert second.hits == len(specs) and second.misses == 0


class TestFaultTolerance:
    def test_injected_fault_is_retried_and_journaled(
        self, tmp_path, monkeypatch
    ):
        """A worker that dies mid-campaign is retried and the campaign
        still completes every other task."""
        monkeypatch.setenv(
            "REPRO_TEST_MARKER", str(tmp_path / "fault-injected")
        )
        journal = tmp_path / "journal.jsonl"
        campaign = ParallelCampaign(
            tmp_path / "cache", jobs=2, retries=1, backoff_s=0.01,
            journal=journal,
        )
        outcomes = campaign.run(_specs(), _fn=_fail_until_marker)
        campaign.close()
        assert all(o.ok for o in outcomes)
        faulted = next(
            o for o in outcomes
            if o.spec.kind == "wl" and o.spec.names[0] == "libq"
        )
        assert faulted.attempts == 2

        events = read_journal(journal)
        names = [e["event"] for e in events]
        assert names[0] == "campaign_start" and names[-1] == "campaign_end"
        assert "task_retry" in names
        retry = next(e for e in events if e["event"] == "task_retry")
        assert "injected worker fault" in retry["error"]
        summary = events[-1]
        assert summary["done"] == 3 and summary["failed"] == 0

    def test_exhausted_task_does_not_abort_campaign(self, tmp_path):
        campaign = ParallelCampaign(
            tmp_path, jobs=2, retries=1, backoff_s=0.01
        )
        specs = _specs()
        outcomes = campaign.run(
            specs,
            _fn=lambda s: (_always_fail(s)
                           if s.kind == "wl" and s.names[0] == "libq"
                           else s.run()),
        )
        assert [o.ok for o in outcomes] == [False, True, True]
        # Failed tasks never poison the cache.
        rerun = ParallelCampaign(tmp_path, jobs=1)
        rerun_outcomes = rerun.run([specs[0]])
        assert not rerun_outcomes[0].cached
        assert rerun_outcomes[0].ok

    def test_results_raises_listing_failures(self, tmp_path):
        campaign = ParallelCampaign(tmp_path, jobs=1, retries=0)
        with pytest.raises(ConfigError, match="failed after retries"):
            campaign.results([_specs()[0]], _fn=_always_fail)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_campaign_keeps_finished_results(
        self, tmp_path, jobs
    ):
        """Ctrl-C after the first task finishes: that task's result is
        already in the cache, so a rerun does not simulate it again."""
        finished = []

        def interrupt(event, fields):
            if event == "task_done":
                finished.append(fields["task"])
                raise KeyboardInterrupt

        specs = _specs()
        campaign = ParallelCampaign(
            tmp_path, jobs=jobs, retries=0, observers=[interrupt]
        )
        with pytest.raises(KeyboardInterrupt):
            campaign.run(specs)
        (label,) = finished
        (spec,) = [spec for spec in specs if spec.label == label]
        assert (tmp_path / spec.cache_filename()).is_file()
        rerun = ParallelCampaign(tmp_path, jobs=1)
        assert [o.cached for o in rerun.run(specs)] == [
            s is spec for s in specs
        ]


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("task_start", task="wl:libq", attempt=1)
            journal.record("task_done", task="wl:libq", duration_s=1.25)
        events = read_journal(path)
        assert [e["event"] for e in events] == ["task_start", "task_done"]
        assert events[1]["duration_s"] == 1.25
        assert all("t" in e for e in events)

    def test_append_only_across_sessions(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("campaign_start", total=1)
        with RunJournal(path) as journal:
            journal.record("campaign_start", total=2)
        events = read_journal(path)
        assert [e["total"] for e in events] == [1, 2]

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("task_done", task="a")
        with path.open("a") as handle:
            handle.write('{"event": "task_do')  # killed mid-write
        events = read_journal(path)
        assert len(events) == 1

    def test_record_is_durable_before_close(self, tmp_path, monkeypatch):
        # Each record must be fsynced the moment record() returns — a
        # reader (or a post-crash recovery) sees it without close().
        import os

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record("task_start", task="a")
        assert synced, "record() did not fsync"
        assert read_journal(path) == [
            {"event": "task_start", "t": read_journal(path)[0]["t"],
             "task": "a"}
        ]
        for i in range(3):
            journal.record("tick", i=i)
        assert len(synced) == 4  # one fsync per record, no batching
        journal.close()


class TestTaskTelemetryEvents:
    def test_run_and_cache_hit_emit_matching_digests(self, tmp_path):
        from repro.sim.config import SystemConfig

        spec = TaskSpec.workload(
            "libq",
            SystemConfig(mechanism="crow-cache", telemetry=True),
            instructions=2_000, warmup_instructions=500,
        )
        journal_path = tmp_path / "j.jsonl"

        with ParallelCampaign(
            tmp_path / "cache", jobs=1, journal=journal_path
        ) as campaign:
            campaign.run([spec])
        with ParallelCampaign(
            tmp_path / "cache", jobs=1, journal=journal_path
        ) as campaign:
            campaign.run([spec])

        events = [e for e in read_journal(journal_path)
                  if e["event"] == "task_telemetry"]
        assert len(events) == 2
        ran, hit = events
        assert ran["cached"] is False and hit["cached"] is True
        assert ran["telemetry_digest"] == hit["telemetry_digest"]
        assert ran["digest"] == spec.digest()

    def test_no_event_without_telemetry(self, tmp_path):
        spec = TaskSpec.workload(
            "libq", instructions=2_000, warmup_instructions=500
        )
        journal_path = tmp_path / "j.jsonl"
        with ParallelCampaign(
            tmp_path / "cache", jobs=1, journal=journal_path
        ) as campaign:
            campaign.run([spec])
        events = [e["event"] for e in read_journal(journal_path)]
        assert "task_telemetry" not in events
