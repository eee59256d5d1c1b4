"""Campaign-level snapshot behaviour: crash-resume and shared warm state.

Covers the exec-engine side of the snapshot subsystem: a retried task
resumes from the checkpoint its killed predecessor left behind (and the
journal says so), corrupt, old-format and other-code checkpoints degrade
to a full re-run (and the journal says why), a continued run's own
error is the task's, and
``ParallelCampaign.run`` warms once per compatibility group without
changing any result byte.
"""

import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ReproError
from repro.exec import ParallelCampaign, TaskSpec, execute_task
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.snapshot import container
from repro.trace.stream import TraceStream
from tests.conftest import stop_at_first_checkpoint

DATA = Path(__file__).resolve().parent.parent / "data"
EXPECTED = json.loads((DATA / "expected_digests.json").read_text())

RUN = dict(instructions=2_000, warmup_instructions=500, seed=0)


def spec_for(mechanism, **extra):
    return TaskSpec.workload(
        "libq",
        SystemConfig(cores=1, mechanism=mechanism, seed=1, telemetry=True),
        **RUN,
        **extra,
    )


def read_journal(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def events(journal, name):
    return [e for e in journal if e.get("event") == name]


def _crash_after_checkpoint(spec):
    """Worker body simulating a mid-run kill: attempt 1 stops right
    after its first checkpoint and dies without reporting; the retry
    runs the spec normally and must resume from that checkpoint."""
    if not spec.checkpoint_path().is_file():
        stop_at_first_checkpoint(spec.run)
        os._exit(13)
    return spec.run()


class TestSpecIdentity:
    def test_snapshot_fields_do_not_change_digest(self, tmp_path):
        """Warm/checkpoint plumbing changes *how* a task executes, never
        *what* it is — so it must not shift the cache key."""
        plain = spec_for("baseline")
        plumbed = spec_for(
            "baseline",
            warm_image=tmp_path / "w.warm",
            checkpoint_dir=tmp_path,
            checkpoint_every=123,
        )
        assert plain.digest() == plumbed.digest()
        assert plain.cache_filename() == plumbed.cache_filename()

    def test_checkpoint_path_is_digest_named(self, tmp_path):
        spec = spec_for("baseline", checkpoint_dir=tmp_path)
        assert spec.checkpoint_path() == tmp_path / f"{spec.digest()}.ckpt"
        assert spec_for("baseline").checkpoint_path() is None


class TestCrashResume:
    def test_killed_worker_resumes_from_its_checkpoint(self, tmp_path):
        """The full fault path: worker dies mid-run (exit 13, no report),
        the runner retries, the retry resumes from the checkpoint — and
        the final digest is byte-identical to an uninterrupted run."""
        journal = tmp_path / "journal.jsonl"
        spec = spec_for(
            "crow-cache", checkpoint_dir=tmp_path / "ck",
            checkpoint_every=250,
        )
        with ParallelCampaign(
            tmp_path / "cache", jobs=2, retries=1, journal=journal,
        ) as campaign:
            (outcome,) = campaign.run([spec], _fn=_crash_after_checkpoint)
        assert outcome.ok
        assert outcome.attempts == 2
        want = EXPECTED["libq-crow-cache"]
        assert outcome.result.telemetry_digest() == want["digest"]

        log = read_journal(journal)
        (retry,) = events(log, "task_retry")
        assert retry["crashed"] is True
        (resumed,) = events(log, "task_resumed")
        assert resumed["checkpoint_cycle"] == 250
        assert resumed["attempt"] == 2
        # a completed run deletes its checkpoint
        assert not spec.checkpoint_path().is_file()

    def test_corrupt_checkpoint_falls_back_to_full_rerun(self, tmp_path):
        spec = spec_for("baseline", checkpoint_dir=tmp_path)
        spec.checkpoint_path().write_bytes(b"garbage" * 100)
        result = spec.run()
        want = EXPECTED["libq-baseline"]
        assert result.telemetry_digest() == want["digest"]
        assert not spec.checkpoint_path().is_file()

    def test_serial_runner_journals_resume_too(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        spec = spec_for(
            "salp", checkpoint_dir=tmp_path / "ck", checkpoint_every=300
        )
        stop_at_first_checkpoint(spec.run)
        with ParallelCampaign(
            tmp_path / "cache", jobs=1, journal=journal,
        ) as campaign:
            (outcome,) = campaign.run([spec])
        assert outcome.ok
        want = EXPECTED["libq-salp"]
        assert outcome.result.telemetry_digest() == want["digest"]
        (resumed,) = events(read_journal(journal), "task_resumed")
        assert resumed["checkpoint_cycle"] == 300

    def test_version_two_checkpoint_reruns_and_is_journalled(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint in the v2 format (trace streams stored as
        cursors) is refused, deleted and its task rerun from cycle 0;
        the journal says why instead of announcing a resume."""
        journal = tmp_path / "journal.jsonl"
        spec = spec_for(
            "baseline", checkpoint_dir=tmp_path / "ck", checkpoint_every=300
        )
        monkeypatch.setattr(container, "FORMAT_VERSION", 2)
        stop_at_first_checkpoint(spec.run)
        monkeypatch.undo()
        with ParallelCampaign(
            tmp_path / "cache", jobs=1, journal=journal,
        ) as campaign:
            (outcome,) = campaign.run([spec])
        assert outcome.ok
        want = EXPECTED["libq-baseline"]
        assert outcome.result.telemetry_digest() == want["digest"]
        assert outcome.result.cycles == want["cycles"]
        assert not spec.checkpoint_path().is_file()
        log = read_journal(journal)
        assert events(log, "task_resumed") == []
        (discarded,) = events(log, "checkpoint_discarded")
        assert discarded["task"] == spec.label
        assert "format v2 is not supported" in discarded["reason"]

    @pytest.mark.parametrize("damage", ["torn", "other-code"])
    def test_unverifiable_checkpoint_is_journalled_as_discarded(
        self, damage, tmp_path, monkeypatch
    ):
        """A checkpoint whose header reads but whose body is torn (its
        last 8 bytes cut), or one written by other code, is not
        announced as a resume: the journal says it was discarded and
        why, and the task reruns from cycle 0."""
        journal = tmp_path / "journal.jsonl"
        spec = spec_for(
            "baseline", checkpoint_dir=tmp_path / "ck", checkpoint_every=300
        )
        checkpoint = spec.checkpoint_path()
        if damage == "other-code":
            monkeypatch.setattr(
                container, "code_fingerprint", lambda: "f" * 20
            )
        stop_at_first_checkpoint(spec.run)
        monkeypatch.undo()
        assert container.read_header(checkpoint)["cycle"] == 300
        if damage == "torn":
            checkpoint.write_bytes(checkpoint.read_bytes()[:-8])
        with ParallelCampaign(
            tmp_path / "cache", jobs=1, journal=journal,
        ) as campaign:
            (outcome,) = campaign.run([spec])
        assert outcome.ok
        want = EXPECTED["libq-baseline"]
        assert outcome.result.telemetry_digest() == want["digest"]
        assert outcome.result.cycles == want["cycles"]
        assert not checkpoint.is_file()
        log = read_journal(journal)
        assert events(log, "task_resumed") == []
        (discarded,) = events(log, "checkpoint_discarded")
        reason = {"torn": "digest mismatch", "other-code": "f" * 20}[damage]
        assert reason in discarded["reason"]

    def test_continued_run_error_is_the_task_error(self, tmp_path):
        """A checkpoint that loads, but whose continued run fails on its
        own (here its saved ``max_cycles`` runs out), fails the task: the
        checkpoint is neither discarded nor rerun from cycle 0."""
        spec = spec_for("baseline", checkpoint_dir=tmp_path)
        checkpoint = spec.checkpoint_path()
        system = System(spec.config, [TraceStream("libq", spec.seed)])
        stop_at_first_checkpoint(
            system.run, spec.instructions, spec.warmup_instructions,
            max_cycles=500, checkpoint_path=checkpoint, checkpoint_every=300,
        )
        with pytest.raises(ReproError, match="exceeded max_cycles"):
            spec.run()
        assert checkpoint.is_file()


def _leader_fails(spec):
    """Worker body whose baseline task (a group leader) always fails."""
    if spec.config.mechanism == "baseline":
        raise ReproError("injected leader failure")
    return spec.run()


def _killed_writing_image(spec):
    """Worker body killed after writing its warm image's tmp file,
    before the rename (the forked worker's own module is patched)."""
    from repro.snapshot import container

    def die(src, dst):
        os._exit(9)

    container.os = SimpleNamespace(getpid=os.getpid, replace=die)
    return spec.run()


class TestWarmFork:
    MECHANISMS = ("baseline", "crow-cache", "ideal-crow-cache", "chargecache")

    @staticmethod
    def run(tmp_path, jobs, specs, _fn=execute_task, retries=2):
        journal = tmp_path / "journal.jsonl"
        with ParallelCampaign(
            tmp_path / "cache", jobs=jobs, journal=journal, retries=retries,
        ) as campaign:
            outcomes = campaign.run(specs, _fn=_fn)
        return outcomes, read_journal(journal)

    def assert_oracle(self, outcomes, mechanisms):
        for mechanism, outcome in zip(mechanisms, outcomes):
            assert outcome.ok, mechanism
            want = EXPECTED[f"libq-{mechanism}"]
            assert (
                outcome.result.telemetry_digest() == want["digest"]
            ), mechanism

    def test_forked_sweep_matches_oracle_digests(self, tmp_path):
        """One warm group of four mechanisms, at one and two workers:
        every digest equals the committed straight-run oracle, the
        journal announces the group once, every follower but (at most)
        the one that started beside the leader launches with the image
        present, and ``warm/`` is gone afterwards."""
        specs = [spec_for(m) for m in self.MECHANISMS]
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            outcomes, log = self.run(root, jobs, specs)
            self.assert_oracle(outcomes, self.MECHANISMS)
            assert [o.spec for o in outcomes] == specs  # image-free specs
            (group,) = events(log, "warm_group")
            assert group["tasks"] == len(specs)
            assert group["leader"] == specs[0].label
            assert Path(group["image"]).parent == root / "cache" / "warm"
            assert events(log, "task_start")[0]["task"] == specs[0].label
            followers = events(log, "warm_follower")
            assert [f["task"] for f in followers] == [
                spec.label for spec in specs[1:]
            ]
            for follower in followers:  # right after its task_start
                start = log[log.index(follower) - 1]
                assert start["event"] == "task_start"
                assert start["task"] == follower["task"]
            present = [f["image_present"] for f in followers]
            assert present.count(True) >= len(specs) - jobs
            assert not (root / "cache" / "warm").exists()

    def test_follower_started_before_its_image_computes_its_own(
        self, tmp_path
    ):
        """With two workers the second member starts beside the leader,
        before the image exists: it warms by itself, identically."""
        specs = [spec_for(m) for m in self.MECHANISMS[:2]]
        outcomes, log = self.run(tmp_path, 2, specs)
        self.assert_oracle(outcomes, self.MECHANISMS[:2])
        (follower,) = events(log, "warm_follower")
        assert follower["task"] == specs[1].label
        assert follower["image_present"] is False

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_leader_does_not_strand_followers(self, tmp_path, jobs):
        specs = [spec_for(m) for m in self.MECHANISMS]
        outcomes, log = self.run(
            tmp_path, jobs, specs, _fn=_leader_fails, retries=0
        )
        assert not outcomes[0].ok
        self.assert_oracle(outcomes[1:], self.MECHANISMS[1:])
        (end,) = events(log, "campaign_end")
        assert end["failed"] == 1
        assert not (tmp_path / "cache" / "warm").exists()

    def test_worker_killed_mid_write_leaves_no_warm_dir(self, tmp_path):
        """Workers that die with their warm image half written (no
        ``finally`` runs) leave tmp files; ``run`` removes those too."""
        specs = [spec_for(m) for m in self.MECHANISMS[:2]]
        outcomes, _ = self.run(
            tmp_path, 2, specs, _fn=_killed_writing_image, retries=0
        )
        assert [o.ok for o in outcomes] == [False, False]
        assert all(o.crashed for o in outcomes)
        assert not (tmp_path / "cache" / "warm").exists()

    def test_singleton_group_runs_cold(self, tmp_path):
        """A group of one spec shares nothing: no image, no event."""
        outcomes, log = self.run(tmp_path, 1, [spec_for("baseline")])
        self.assert_oracle(outcomes, ["baseline"])
        assert events(log, "warm_group") == []
        assert not (tmp_path / "cache" / "warm").exists()

    def test_cache_hits_form_no_group(self, tmp_path):
        specs = [spec_for(m) for m in self.MECHANISMS[:2]]
        self.run(tmp_path, 1, specs)
        outcomes, log = self.run(tmp_path, 1, specs)
        assert all(o.cached for o in outcomes)
        (_, second) = [
            i for i, e in enumerate(log) if e["event"] == "campaign_start"
        ]
        assert events(log[second:], "warm_group") == []

    def test_failed_forked_sweep_raises_via_results(self, tmp_path):
        def boom(spec):
            raise ReproError("injected")

        with ParallelCampaign(
            tmp_path / "cache", jobs=1, retries=0,
        ) as campaign:
            with pytest.raises(ReproError):
                campaign.results(
                    [spec_for("baseline"), spec_for("crow-cache")], _fn=boom
                )
        assert not (tmp_path / "cache" / "warm").exists()
