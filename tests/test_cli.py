"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quake3"])

    def test_rejects_unknown_mechanism(self, capsys):
        # Names are validated against the plugin registry at config
        # construction, not by argparse: exit 2, error lists the registry.
        code = main(
            ["run", "libq", "--mechanism", "magic",
             "--instructions", "1000", "--warmup", "100"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown mechanism 'magic'" in err
        assert "crow-cache" in err and "hira" in err

    def test_mechanisms_verify_has_no_run_shape_flags(self):
        # The oracle pins one run shape; any other can only fail the gate.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mechanisms", "--verify", "--instructions", "3000"]
            )


class TestCommands:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "libq" in out and "h264-dec" in out and "mcf" in out

    def test_run_with_baseline(self, capsys):
        code = main([
            "run", "h264-dec", "--mechanism", "crow-cache",
            "--instructions", "5000", "--warmup", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup vs baseline" in out
        assert "CROW-table hit rate" in out

    def test_run_mix(self, capsys):
        code = main([
            "run", "libq", "bzip2", "--mechanism", "baseline",
            "--instructions", "2000", "--warmup", "500",
        ])
        assert code == 0
        assert "IPC (sum)" in capsys.readouterr().out


class TestStatsCommand:
    def test_headline_and_figure(self, capsys):
        code = main([
            "stats", "mcf", "--instructions", "5000", "--warmup", "1000",
            "--epoch", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "row-buffer hit rate" in out
        assert "read latency p50" in out
        assert "read latency p95" in out
        assert "CROW hit rate" in out
        assert "ipc per epoch" in out
        assert "#" in out  # the ASCII figure rendered

    def test_json_and_trace_export(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "telemetry.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "stats", "mcf", "--instructions", "5000", "--warmup", "1000",
            "--epoch", "500", "--json", str(json_path),
            "--trace", str(trace_path), "--trace-capacity", "64",
        ])
        assert code == 0
        export = json.loads(json_path.read_text())
        assert "controller" in export and "epochs" in export
        lines = trace_path.read_text().splitlines()
        assert 0 < len(lines) <= 64
        event = json.loads(lines[0])
        assert {"tick", "cmd", "bank"} <= set(event)

    def test_alternate_series(self, capsys):
        code = main([
            "stats", "mcf", "--instructions", "4000", "--warmup", "1000",
            "--epoch", "500", "--series", "read_latency",
        ])
        assert code == 0
        assert "read_latency per epoch" in capsys.readouterr().out

    def test_unknown_series_rejected(self, capsys):
        code = main([
            "stats", "libq", "--instructions", "2000", "--warmup", "500",
            "--series", "bogus",
        ])
        assert code == 2
        assert "unknown epoch series" in capsys.readouterr().err


class TestCampaignCommand:
    def test_rejects_unknown_mechanism(self, capsys, tmp_path):
        code = main(
            ["campaign", "libq", "--mechanisms", "magic",
             "--instructions", "1000", "--warmup", "100",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown mechanism 'magic'" in err
        assert "registered mechanisms" in err

    def test_rejects_invalid_run_lengths_before_starting(
        self, capsys, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        code = main([
            "campaign", "libq", "--instructions", "0",
            "--jobs", "2", "--retries", "2",
            "--cache-dir", str(tmp_path), "--journal", str(journal),
        ])
        assert code == 2
        assert "invalid instruction counts" in capsys.readouterr().err
        assert not journal.exists()  # no pool, no attempts

    def test_serial_campaign(self, capsys, tmp_path):
        code = main([
            "campaign", "libq", "--jobs", "1",
            "--instructions", "2000", "--warmup", "500",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wl:libq@baseline#0" in out
        assert "wl:libq@crow-cache#0" in out
        assert "failed=0" in out
        assert list(tmp_path.glob("*.pkl"))  # results were cached

    def test_parallel_campaign_with_journal(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        code = main([
            "campaign", "libq", "h264-dec", "--jobs", "2",
            "--mechanisms", "baseline",
            "--instructions", "2000", "--warmup", "500",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal", str(journal),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "done=2 failed=0" in out

        from repro.exec import read_journal

        events = [e["event"] for e in read_journal(journal)]
        assert events[0] == "campaign_start"
        assert events[-1] == "campaign_end"
        assert events.count("task_done") == 2

    def test_campaign_telemetry_journal(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        code = main([
            "campaign", "libq", "--jobs", "1",
            "--mechanisms", "crow-cache", "--telemetry",
            "--instructions", "2000", "--warmup", "500",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal", str(journal),
        ])
        assert code == 0
        capsys.readouterr()

        from repro.exec import read_journal

        events = [e for e in read_journal(journal)
                  if e["event"] == "task_telemetry"]
        assert len(events) == 1
        entry = events[0]
        assert entry["cached"] is False
        assert len(entry["telemetry_digest"]) == 16
        assert entry["reads_served"] > 0
        assert "crow_hit_rate" in entry

        # A cache-hit rerun journals the identical telemetry digest.
        assert main([
            "campaign", "libq", "--jobs", "1",
            "--mechanisms", "crow-cache", "--telemetry",
            "--instructions", "2000", "--warmup", "500",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        events = [e for e in read_journal(journal)
                  if e["event"] == "task_telemetry"]
        assert len(events) == 2
        assert events[1]["cached"] is True
        assert events[1]["telemetry_digest"] == entry["telemetry_digest"]

    def test_campaign_reuses_cache(self, capsys, tmp_path):
        argv = [
            "campaign", "libq", "--jobs", "1", "--mechanisms", "baseline",
            "--instructions", "2000", "--warmup", "500",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cached" in out
        assert "cache hits=1" in out

    def test_campaign_without_cache_dir_leaves_no_temp_dir(
        self, capsys, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        assert main([
            "campaign", "libq", "--jobs", "1", "--mechanisms", "baseline",
            "--instructions", "2000", "--warmup", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache dir=" not in out
        assert not list(tmp_path.glob("repro-campaign-*"))


class TestMechanismsVerify:
    def test_missing_digest_file_is_an_error(
        self, capsys, tmp_path, monkeypatch
    ):
        # The default --digests path is relative to the repository root:
        # run from anywhere else, the gate must fail loudly instead of
        # reporting every mechanism conformant without comparing digests.
        monkeypatch.chdir(tmp_path)
        assert main(["mechanisms", "--verify"]) == 2
        captured = capsys.readouterr()
        assert "tests/data/expected_digests.json" in captured.err
        assert captured.err.startswith("error: ")
        assert "conformant" not in captured.out

    def test_mechanism_without_oracle_entry_fails(
        self, capsys, tmp_path, monkeypatch
    ):
        # A registered mechanism with no committed digest is unpinned:
        # the gate must fail it rather than report it conformant.
        import repro.__main__ as cli

        monkeypatch.setattr(cli, "mechanism_names", lambda: ("baseline",))
        digests = tmp_path / "digests.json"
        digests.write_text("{}")
        assert main(["mechanisms", "--verify", "--digests", str(digests)]) == 1
        captured = capsys.readouterr()
        assert "baseline           no-oracle-digest" in captured.out
        assert "FAILED: baseline" in captured.err
        assert "conformant" not in captured.out


class TestSnapshotDiff:
    @staticmethod
    def _pair(tmp_path, state_a, state_b):
        from repro.snapshot import write_snapshot

        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        write_snapshot(a, {"kind": "test"}, {"state": state_a})
        write_snapshot(b, {"kind": "test"}, {"state": state_b})
        return str(a), str(b)

    def test_identical_states(self, capsys, tmp_path):
        state = {f"k{i:03d}": i for i in range(300)}
        a, b = self._pair(tmp_path, state, dict(state))
        assert main(["snapshot", "diff", a, b]) == 0
        assert capsys.readouterr().out == "snapshots are identical\n"

    def test_few_differences_are_all_printed(self, capsys, tmp_path):
        state = {f"k{i:03d}": i for i in range(300)}
        other = dict(state, k000=-1, k150=-1, k299=-1)
        a, b = self._pair(tmp_path, state, other)
        assert main(["snapshot", "diff", a, b]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "state.k000: 0 != -1",
            "state.k150: 150 != -1",
            "state.k299: 299 != -1",
        ]

    def test_capped_diff_reports_a_lower_bound(self, capsys, tmp_path):
        state = {f"k{i:03d}": i for i in range(300)}
        other = {key: -value - 1 for key, value in state.items()}
        a, b = self._pair(tmp_path, state, other)
        assert main(["snapshot", "diff", a, b, "--limit", "40"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 41
        assert lines[0] == "state.k000: 0 != -1"
        assert lines[39] == "state.k039: 39 != -40"
        # The diff stops collecting after about 200 leaves, so the count
        # of what was not printed is only a lower bound.
        assert lines[40] == "... at least 161 further difference(s)"
