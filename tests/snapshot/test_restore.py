"""Restore-then-run equivalence: the snapshot subsystem's correctness bar.

The tentpole property: a run stopped right after a periodic checkpoint
and resumed — in this process or another — produces a telemetry digest
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
from repro.snapshot import warmup_digest, write_snapshot
from repro.trace.stream import TraceStream
from tests.conftest import stop_at_first_checkpoint

DATA = Path(__file__).resolve().parent.parent / "data"
EXPECTED = json.loads((DATA / "expected_digests.json").read_text())

RUN = dict(instructions=2_000, warmup_instructions=500)


def config_for(mechanism, **extra):
    base = dict(cores=1, mechanism=mechanism, seed=1, telemetry=True)
    base.update(extra)
    return SystemConfig(**base)


def checkpoint(path, config, every, **extra):
    """Run libq checkpointing into ``path`` every ``every`` cycles and
    stop right after the first checkpoint; returns its header."""
    return stop_at_first_checkpoint(
        run_workload, "libq", config, **RUN, **extra,
        checkpoint_path=path, checkpoint_every=every,
    )


class TestRestoreThenRun:
    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_resumed_digest_matches_oracle(self, case, tmp_path):
        """Checkpoint mid-measurement, stop, resume, compare against the
        committed oracle digest — byte-identical or the subsystem is
        perturbing simulated execution."""
        mechanism = case.removeprefix("libq-")
        ck = tmp_path / "run.ckpt"
        header = checkpoint(ck, config_for(mechanism), 400)
        assert header["phase"] == "measure"
        resumed = System.resume(ck)
        want = EXPECTED[case]
        assert resumed.telemetry_digest() == want["digest"]
        assert resumed.cycles == want["cycles"]
        assert not ck.is_file()

    def test_snapshot_during_warmup_resumes_identically(self, tmp_path):
        """Cycle 150 lands in the timed-warmup phase: the resumed run
        must replay the rest of warmup, reset stats, then measure."""
        ck = tmp_path / "warmup.ckpt"
        assert checkpoint(ck, config_for("crow-cache"), 150)["phase"] == (
            "warmup"
        )
        resumed = System.resume(ck)
        want = EXPECTED["libq-crow-cache"]
        assert resumed.telemetry_digest() == want["digest"]

    def test_strict_conformance_passes_on_resumed_run(self, tmp_path):
        """repro.check strict mode raises on the first protocol
        violation — a resumed run completing under it means the restored
        DRAM/controller state is protocol-consistent, not just
        digest-consistent."""
        config = config_for(
            "crow-combined", check=True, check_mode="strict"
        )
        ck = tmp_path / "checked.ckpt"
        checkpoint(ck, config, 400)
        resumed = System.resume(ck)
        want = EXPECTED["libq-crow-combined"]
        assert resumed.telemetry_digest() == want["digest"]

    def test_checkpoint_chain_resumes_and_cleans_up(self, tmp_path):
        """Periodic checkpointing: a run that checkpoints throughout ends
        on the uninterrupted digest and deletes its file, and a run
        killed twice, once more after resuming, resumes to the same
        digest at the saved cadence."""
        want = EXPECTED["libq-salp"]
        ck = tmp_path / "run.ckpt"
        straight = run_workload(
            "libq", config_for("salp"), **RUN,
            checkpoint_path=ck, checkpoint_every=250,
        )
        assert straight.telemetry_digest() == want["digest"]
        assert not ck.is_file()
        first = checkpoint(ck, config_for("salp"), 250)
        second = stop_at_first_checkpoint(System.resume, ck)
        assert second["cycle"] >= first["cycle"] + 250
        resumed = System.resume(ck)
        assert resumed.telemetry_digest() == want["digest"]
        # resume() itself checkpoints to the same file and must clean up
        assert not ck.is_file()

    def test_moved_checkpoint_checkpoints_into_its_new_path(self, tmp_path):
        """``resume`` uses the path it loaded from: a checkpoint moved
        after it was written keeps checkpointing into the moved file
        and removes that file on completion, never the original."""
        original = tmp_path / "written" / "run.ckpt"
        checkpoint(original, config_for("crow-cache"), 250)
        moved = tmp_path / "moved" / "elsewhere.ckpt"
        moved.parent.mkdir()
        original.rename(moved)
        stop_at_first_checkpoint(System.resume, moved)
        assert moved.is_file()
        assert not original.exists()
        resumed = System.resume(moved)
        want = EXPECTED["libq-crow-cache"]
        assert resumed.telemetry_digest() == want["digest"]
        assert not moved.exists()
        assert not original.exists()


class TestCompatibilityGates:
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

    def test_resume_refuses_a_system_saved_outside_a_run(self, tmp_path):
        snap = tmp_path / "idle.snap"
        System(config_for("baseline"), [TraceStream("libq", 0)]).save_snapshot(
            snap
        )
        with pytest.raises(SnapshotError, match="outside a run"):
            System.resume(snap)
        assert snap.is_file()


class TestRunGuards:
    def test_gc_reenabled_when_run_raises_midway(self):
        """run() disables the generational GC for the hot loop; an
        exception escaping mid-run (here: max_cycles exhausted during
        warmup) must re-enable it on the way out."""
        system = System(config_for("baseline"), [TraceStream("libq", 0)])
        assert gc.isenabled()
        with pytest.raises(ReproError, match="max_cycles"):
            system.run(2_000, 500, max_cycles=10, prewarm_accesses=1_000)
        assert gc.isenabled()
