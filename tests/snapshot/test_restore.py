"""Restore-then-run equivalence: the snapshot subsystem's correctness bar.

The tentpole property: a run snapshotted at an arbitrary cycle and
resumed — in this process or another — produces a telemetry digest
byte-identical to the uninterrupted run. Asserted here against every
oracle case in ``tests/data/expected_digests.json``, with the
conformance checker attached, and across the warm-image fork path.
"""

import gc
import json
from pathlib import Path

import pytest

from repro import SystemConfig, run_workload
from repro.errors import ConfigError, ReproError, SnapshotError
from repro.sim.system import System
from repro.snapshot import read_header, warmup_digest, write_snapshot

DATA = Path(__file__).resolve().parent.parent / "data"
EXPECTED = json.loads((DATA / "expected_digests.json").read_text())

RUN = dict(instructions=2_000, warmup_instructions=500)


def config_for(mechanism, **extra):
    base = dict(cores=1, mechanism=mechanism, seed=1, telemetry=True)
    base.update(extra)
    return SystemConfig(**base)


class TestRestoreThenRun:
    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_resumed_digest_matches_oracle(self, case, tmp_path):
        """Snapshot mid-measurement, resume, compare against the
        committed oracle digest — byte-identical or the subsystem is
        perturbing simulated execution."""
        mechanism = case.removeprefix("libq-")
        snap = tmp_path / "mid.snap"
        straight = run_workload(
            "libq", config_for(mechanism), **RUN,
            snapshot_at_cycle=300, snapshot_path=snap,
        )
        want = EXPECTED[case]
        assert straight.telemetry_digest() == want["digest"]
        assert snap.is_file()

        resumed = System.resume(snap)
        assert resumed.telemetry_digest() == want["digest"]
        assert resumed.cycles == want["cycles"]

    def test_snapshot_during_warmup_resumes_identically(self, tmp_path):
        """Cycle 40 lands in the timed-warmup phase: the resumed run
        must replay the rest of warmup, reset stats, then measure."""
        snap = tmp_path / "warmup.snap"
        straight = run_workload(
            "libq", config_for("crow-cache"), **RUN,
            snapshot_at_cycle=40, snapshot_path=snap,
        )
        assert read_header(snap)["phase"] == "warmup"
        resumed = System.resume(snap)
        assert resumed.telemetry_digest() == straight.telemetry_digest()

    def test_strict_conformance_passes_on_resumed_run(self, tmp_path):
        """repro.check strict mode raises on the first protocol
        violation — a resumed run completing under it means the restored
        DRAM/controller state is protocol-consistent, not just
        digest-consistent."""
        config = config_for(
            "crow-combined", check=True, check_mode="strict"
        )
        snap = tmp_path / "checked.snap"
        straight = run_workload(
            "libq", config, **RUN,
            snapshot_at_cycle=300, snapshot_path=snap,
        )
        resumed = System.resume(snap)
        assert resumed.telemetry_digest() == straight.telemetry_digest()

    def test_checkpoint_chain_resumes_and_cleans_up(self, tmp_path):
        """Periodic checkpointing: kill-points at every cadence multiple
        must all resume to the same digest, and a completed run must
        delete its checkpoint."""
        straight = run_workload("libq", config_for("salp"), **RUN)
        ck = tmp_path / "run.ckpt"
        run_workload(
            "libq", config_for("salp"), **RUN,
            snapshot_at_cycle=200, snapshot_path=ck,
        )
        resumed = System.resume(ck, checkpoint_every=150)
        assert resumed.telemetry_digest() == straight.telemetry_digest()
        # resume() itself checkpoints to the same file and must clean up
        assert not ck.is_file()


class TestCompatibilityGates:
    def test_config_mismatch_rejected_both_directions(self, tmp_path):
        a, b = config_for("baseline"), config_for("crow-cache")
        snap_a = tmp_path / "a.snap"
        snap_b = tmp_path / "b.snap"
        run_workload("libq", a, **RUN,
                     snapshot_at_cycle=300, snapshot_path=snap_a)
        run_workload("libq", b, **RUN,
                     snapshot_at_cycle=300, snapshot_path=snap_b)
        with pytest.raises(ConfigError, match="digest"):
            System.restore(snap_a, config=b)
        with pytest.raises(ConfigError, match="digest"):
            System.restore(snap_b, config=a)
        # the matching config is accepted in both directions
        assert System.restore(snap_a, config=a).now == 300
        assert System.restore(snap_b, config=b).now == 300

    @pytest.fixture(scope="class")
    def warm_image(self, tmp_path_factory):
        """One warm image, written by a baseline run, shared across the
        class."""
        image = tmp_path_factory.mktemp("warm") / "w.warm"
        run_workload("libq", config_for("baseline"), **RUN,
                     warm_image=image)
        assert image.is_file()
        return image

    def test_warm_image_rejects_incompatible_config(self, warm_image):
        other = config_for("baseline", seed=7)
        assert warmup_digest(other) != warmup_digest(config_for("baseline"))
        with pytest.raises(ConfigError, match="other inputs"):
            run_workload("libq", other, **RUN, warm_image=warm_image)

    def test_warm_image_is_mechanism_invariant(self, warm_image):
        """One warm image written under baseline seeds any mechanism
        variant with digests equal to cold runs — the property
        ParallelCampaign.run's warm groups rest on."""
        for mechanism in ("crow-ref", "chargecache"):
            cold = run_workload("libq", config_for(mechanism), **RUN)
            adopted = run_workload(
                "libq", config_for(mechanism), **RUN,
                warm_image=warm_image,
            )
            assert (
                adopted.telemetry_digest() == cold.telemetry_digest()
            ), mechanism

    def test_resume_requires_a_resumable_snapshot(self, tmp_path):
        """A valid container of another kind is refused by the kind
        check, not by the container's own framing checks."""
        other = tmp_path / "other.snap"
        write_snapshot(other, {"kind": "other"}, {})
        with pytest.raises(SnapshotError, match="expected a full snapshot"):
            System.resume(other)


class TestRunGuards:
    def test_snapshot_kwargs_must_pair(self):
        with pytest.raises(ConfigError, match="together"):
            run_workload("libq", config_for("baseline"), **RUN,
                         snapshot_at_cycle=100)
        with pytest.raises(ConfigError, match="together"):
            run_workload("libq", config_for("baseline"), **RUN,
                         snapshot_path="x.snap")

    def test_gc_reenabled_when_run_raises_midway(self):
        """run() disables the generational GC for the hot loop; an
        exception escaping mid-run (here: max_cycles exhausted during
        warmup) must re-enable it on the way out."""
        from repro.trace.stream import TraceStream

        system = System(config_for("baseline"), [TraceStream("libq", 0)])
        assert gc.isenabled()
        with pytest.raises(ReproError, match="max_cycles"):
            system.run(2_000, 500, max_cycles=10, prewarm_accesses=1_000)
        assert gc.isenabled()
