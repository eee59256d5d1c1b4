"""Unit tests for the repro.perf suite, serialization, and compare gate."""

import copy
import json

import pytest

from repro.perf import (
    EXIT_DIGEST_MISMATCH,
    EXIT_REGRESSION,
    PerfCase,
    compare,
    load_results,
    run_suite,
    serialize,
    spin_score_mops,
    write_results,
)

#: One tiny case keeps the end-to-end suite test under a second.
TINY = (
    PerfCase("tiny-libq", ("libq",), "baseline", 1_000, 200),
)


@pytest.fixture(scope="module")
def tiny_doc():
    return run_suite(repeat=1, cases=TINY)


class TestCalibration:
    def test_spin_score_is_positive_and_stable(self):
        score = spin_score_mops(iterations=100_000, repeats=2)
        assert score > 0
        # Same machine, back to back: within a generous noise envelope.
        again = spin_score_mops(iterations=100_000, repeats=2)
        assert 0.2 < score / again < 5.0


class TestSuite:
    def test_document_shape(self, tiny_doc):
        assert tiny_doc["schema"] == "repro-perf/1"
        case = tiny_doc["cases"]["tiny-libq"]
        for key in (
            "digest",
            "sim_cycles",
            "events",
            "wall_seconds",
            "sim_cycles_per_sec",
            "events_per_sec",
            "normalized_score",
        ):
            assert key in case, key
        assert case["sim_cycles"] > 0
        assert case["events"] > 0
        assert case["normalized_score"] > 0
        assert tiny_doc["composite"] > 0

    def test_serialization_is_byte_stable(self, tiny_doc):
        assert serialize(tiny_doc) == serialize(json.loads(serialize(tiny_doc)))
        assert serialize(tiny_doc).endswith("\n")

    def test_write_and_load_roundtrip(self, tiny_doc, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        write_results(tiny_doc, path)
        assert load_results(path) == json.loads(serialize(tiny_doc))

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError):
            load_results(path)

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            run_suite(repeat=0, cases=TINY)


class TestCompareGate:
    def test_identical_results_pass(self, tiny_doc, capsys):
        assert compare(tiny_doc, tiny_doc) == 0
        out = capsys.readouterr().out
        assert "perf OK" in out
        assert "1.00x" in out

    def test_regression_beyond_threshold_fails(self, tiny_doc, capsys):
        slow = copy.deepcopy(tiny_doc)
        slow["composite"] = tiny_doc["composite"] * 0.5
        for case in slow["cases"].values():
            case["normalized_score"] *= 0.5
        assert compare(slow, tiny_doc) == EXIT_REGRESSION
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_regression_within_threshold_passes(self, tiny_doc):
        slight = copy.deepcopy(tiny_doc)
        slight["composite"] = tiny_doc["composite"] * 0.9
        assert compare(slight, tiny_doc, threshold=0.15) == 0

    def test_digest_mismatch_trumps_speed(self, tiny_doc, capsys):
        changed = copy.deepcopy(tiny_doc)
        changed["cases"]["tiny-libq"]["digest"] = "0000000000000000"
        # Even a *faster* run fails when behaviour changed.
        changed["composite"] = tiny_doc["composite"] * 10
        assert compare(changed, tiny_doc) == EXIT_DIGEST_MISMATCH
        assert "DIGEST MISMATCH" in capsys.readouterr().out

    def test_missing_case_warns_but_gates_on_composite(self, tiny_doc, capsys):
        partial = copy.deepcopy(tiny_doc)
        partial["cases"] = {}
        assert compare(partial, tiny_doc) == 0
        assert "missing from current run" in capsys.readouterr().out


class TestDeterminismGuard:
    def test_nondeterminism_across_repeats_raises(self, monkeypatch):
        import repro.perf.suite as suite_mod

        facts = iter(
            [
                (0.01, {"digest": "aaaa", "sim_cycles": 1, "events": 1}),
                (0.01, {"digest": "bbbb", "sim_cycles": 1, "events": 1}),
            ]
        )
        monkeypatch.setattr(
            suite_mod, "_run_case_once", lambda case: next(facts)
        )
        with pytest.raises(RuntimeError, match="non-deterministic"):
            suite_mod.run_suite(repeat=2, cases=TINY)
