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

DATA = Path(__file__).resolve().parent.parent / "data"
EXPECTED = json.loads((DATA / "expected_digests.json").read_text())

RUN = dict(instructions=2_000, warmup_instructions=500, prewarm_accesses=0)


def build(mechanism="crow-cache", **extra):
    config = SystemConfig(
        cores=1, mechanism=mechanism, seed=1, telemetry=True, **extra
    )
    return System(config, [TraceStream("libq", 1)])


def snapshot_of_run(path, **extra):
    """Run libq to completion, saving a resumable snapshot at cycle
    300; returns the finished system and its result."""
    system = build(**extra)
    result = system.run(**RUN, snapshot_at_cycle=300, snapshot_path=path)
    return system, result


class TestPayload:
    def test_functional_cells_resume_identically(self, tmp_path):
        snap = tmp_path / "cells.snap"
        straight, result = snapshot_of_run(snap, functional_cells=True)
        header, payload = read_snapshot(snap)
        assert header["phase"] == "measure"
        restored = payload["system"]
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
        header = {"kind": "full", "cycle": 250, "resumable": True}
        monkeypatch.setattr(container, "FORMAT_VERSION", 1)
        container.write_snapshot(spec.checkpoint_path(), header, {})
        monkeypatch.undo()
        result = spec.run()
        want = EXPECTED["libq-baseline"]
        assert result.telemetry_digest() == want["digest"]
        assert result.cycles == want["cycles"]
        assert not spec.checkpoint_path().is_file()


class TestDiff:
    def test_diff_names_the_changed_field(self, tmp_path, capsys):
        a, b, c = (tmp_path / f"{n}.snap" for n in "abc")
        snapshot_of_run(a)
        snapshot_of_run(b)
        assert main(["snapshot", "diff", str(a), str(b)]) == 0
        assert capsys.readouterr().out == "snapshots are identical\n"

        _, payload = read_snapshot(a)
        system = payload["system"]
        bank = system.channels[0].banks[3]
        before = bank.act_time
        bank.act_time += 7
        system.save_snapshot(c, run_state=payload["run"])
        assert main(["snapshot", "diff", str(a), str(c)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"system.channels[0].banks[3].act_time: {before} != "
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
        system.run(
            instructions=600, warmup_instructions=100, prewarm_accesses=2_000,
            snapshot_at_cycle=150, snapshot_path=a,
        )
        _, payload = read_snapshot(a)
        sets = payload["system"].llc._sets
        index = next(i for i, entries in enumerate(sets) if len(entries) > 2)
        keys = list(sets[index])
        items = list(reversed(sets[index].items()))
        sets[index].clear()
        sets[index].update(items)
        payload["system"].save_snapshot(b, run_state=payload["run"])
        assert main(["snapshot", "diff", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"system.llc._sets[{index}]: key order {keys!r} != "
            f"{keys[::-1]!r}"
        ]

    def test_diff_of_warm_images_names_an_llc_set_by_path(
        self, tmp_path, capsys
    ):
        """A warm image pickles the prewarmed ``Llc`` as the system held
        it, so reversing one set's LRU order in an image is named by the
        set's attribute path, like in a full snapshot."""
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
        system, _ = snapshot_of_run(snap)
        header, payload = read_snapshot(snap)
        consumed = payload["system"].cores[0].trace.consumed
        assert header["consumed"] == [consumed]
        assert consumed > 0
        assert main(["snapshot", "inspect", str(snap)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(
            row.split() == ["consumed", str(consumed)] for row in rows
        ), rows

