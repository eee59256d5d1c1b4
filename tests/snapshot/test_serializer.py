"""The pickled-``System`` payload: its edges and its diff.

A full snapshot pickles the live system, so these tests cover what that
design has to get right beyond plain restore equivalence: functional
cell arrays travel with the rest, an unpicklable object fails the save
cleanly, containers written by the older state-dict format are refused
(and a campaign checkpoint in that format is rerun from scratch), and a
diff of two snapshots names a single changed field by its path.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.errors import SnapshotError
from repro.exec import TaskSpec
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.snapshot import (
    container, read_snapshot, state_tree, write_snapshot,
)
from repro.trace.stream import TraceStream
from tests.conftest import stop_at_first_checkpoint

DATA = Path(__file__).resolve().parent.parent / "data"
EXPECTED = json.loads((DATA / "expected_digests.json").read_text())

RUN = dict(instructions=2_000, warmup_instructions=500, prewarm_accesses=0)


def build(mechanism="crow-cache", **extra):
    config = SystemConfig(
        cores=1, mechanism=mechanism, seed=1, telemetry=True, **extra
    )
    return System(config, [TraceStream("libq", 1)])


def checkpoint_of_run(path, **extra):
    """Run libq checkpointing into ``path`` every 300 cycles and stop
    right after the first checkpoint; returns its header."""
    return stop_at_first_checkpoint(
        build(**extra).run, **RUN, checkpoint_path=path,
        checkpoint_every=300,
    )


class TestPayload:
    def test_functional_cells_resume_identically(self, tmp_path):
        snap = tmp_path / "cells.snap"
        assert checkpoint_of_run(snap, functional_cells=True)["phase"] == (
            "measure"
        )
        straight = build(functional_cells=True)
        result = straight.run(**RUN)
        _, restored = read_snapshot(snap)
        assert restored.cell_arrays[0] is restored.channels[0].cell_array
        resumed = restored.run(**RUN)
        assert resumed.telemetry_digest() == result.telemetry_digest()
        assert resumed.cycles == result.cycles
        cells = state_tree(straight.cell_arrays)
        assert cells[0]["_data"]
        assert state_tree(restored.cell_arrays) == cells

    def test_unpicklable_state_fails_cleanly(self, tmp_path):
        system = build()
        system.channels[0].attach(lambda now, command: None)
        path = tmp_path / "s.snap"
        with pytest.raises(SnapshotError, match="lambda") as error:
            system.save_snapshot(path)
        assert str(path) in str(error.value)
        assert list(tmp_path.iterdir()) == []

    def test_finished_telemetry_run_pickles(self, tmp_path):
        """A system whose telemetry run has completed saves, and its
        telemetry harvests the same export after the round trip."""
        system = build()
        result = system.run(**RUN)
        path = tmp_path / "done.snap"
        system.save_snapshot(path)
        _, loaded = read_snapshot(path)
        meta = result.telemetry["meta"]
        export = loaded.telemetry.finalize(meta["measure_end"], meta["cycles"])
        assert export == result.telemetry

    def test_version_one_container_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "v1.snap"
        monkeypatch.setattr(container, "FORMAT_VERSION", 1)
        container.write_snapshot(path, {"kind": "full"}, {"state": {}})
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match=r"format v1 .*reads v4"):
            read_snapshot(path)

    def test_campaign_discards_a_version_one_checkpoint(
        self, tmp_path, monkeypatch
    ):
        spec = TaskSpec.workload(
            "libq",
            SystemConfig(cores=1, mechanism="baseline", seed=1,
                         telemetry=True),
            instructions=2_000, warmup_instructions=500, seed=0,
            checkpoint_dir=tmp_path,
        )
        header = {"kind": "full", "cycle": 250}
        monkeypatch.setattr(container, "FORMAT_VERSION", 1)
        container.write_snapshot(spec.checkpoint_path(), header, {})
        monkeypatch.undo()
        result = spec.run()
        want = EXPECTED["libq-baseline"]
        assert result.telemetry_digest() == want["digest"]
        assert result.cycles == want["cycles"]
        assert not spec.checkpoint_path().is_file()


class TestDiff:
    def test_checkpoints_in_two_files_are_identical(self, tmp_path, capsys):
        """A checkpoint does not pickle its own file name: two identical
        runs checkpointing into different files diff equal."""
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        checkpoint_of_run(a)
        checkpoint_of_run(b)
        assert main(["snapshot", "diff", str(a), str(b)]) == 0
        assert capsys.readouterr().out == "snapshots are identical\n"
        assert System.load(b).checkpoint_path == b

    def test_diff_names_the_changed_field(self, tmp_path, capsys):
        a, c = tmp_path / "a.snap", tmp_path / "c.snap"
        checkpoint_of_run(a)
        _, system = read_snapshot(a)
        bank = system.channels[0].banks[3]
        before = bank.act_time
        bank.act_time += 7
        system.save_snapshot(c)
        assert main(["snapshot", "diff", str(a), str(c)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"channels[0].banks[3].act_time: {before} != "
            f"{before + 7}"
        ]

    def test_diff_names_a_set_whose_lru_order_alone_differs(
        self, tmp_path, capsys
    ):
        """An LLC set's key order is its LRU stack: reversing one set of
        a 4-core crow-cache snapshot changes no key and no value, and
        the diff must still name that set."""
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        names = ("libq", "mcf", "stream-copy", "milc")
        system = System(
            SystemConfig(cores=4, mechanism="crow-cache", seed=1),
            [TraceStream(name, 1 + core) for core, name in enumerate(names)],
        )
        stop_at_first_checkpoint(
            system.run, instructions=600, warmup_instructions=100,
            prewarm_accesses=2_000, checkpoint_path=a, checkpoint_every=150,
        )
        _, system = read_snapshot(a)
        sets = system.llc._sets
        index = next(i for i, entries in enumerate(sets) if len(entries) > 2)
        keys = list(sets[index])
        items = list(reversed(sets[index].items()))
        sets[index].clear()
        sets[index].update(items)
        system.save_snapshot(b)
        assert main(["snapshot", "diff", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"llc._sets[{index}]: key order {keys!r} != "
            f"{keys[::-1]!r}"
        ]

    def test_diff_of_warm_images_names_an_llc_set_by_path(
        self, tmp_path, capsys
    ):
        """A warm image pickles the prewarmed ``Llc`` as the system held
        it, so reversing one set's LRU order in an image is named by the
        same attribute path as in a checkpoint."""
        a, b = tmp_path / "a.warm", tmp_path / "b.warm"
        System(
            SystemConfig(cores=1, seed=1), [TraceStream("mcf", 1)],
            warm_image=a,
        ).prewarm(2_000)
        header, payload = read_snapshot(a)
        sets = payload["llc"]._sets
        index = next(i for i, entries in enumerate(sets) if len(entries) > 2)
        keys = list(sets[index])
        items = list(reversed(sets[index].items()))
        sets[index].clear()
        sets[index].update(items)
        for key in ("format_version", "code_fingerprint"):
            del header[key]
        write_snapshot(b, header, payload)
        assert main(["snapshot", "diff", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"llc._sets[{index}]: key order {keys!r} != {keys[::-1]!r}"
        ]


class TestInspect:
    def test_inspect_prints_records_consumed_per_core(self, tmp_path, capsys):
        snap = tmp_path / "s.snap"
        checkpoint_of_run(snap)
        header, system = read_snapshot(snap)
        consumed = system.cores[0].trace.consumed
        assert header["consumed"] == [consumed]
        assert consumed > 0
        assert main(["snapshot", "inspect", str(snap)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(
            row.split() == ["consumed", str(consumed)] for row in rows
        ), rows

