"""The perf gate must be engine-blind.

Older ``BENCH_perf.json`` documents (the committed baseline among them)
carry a top-level ``engine`` key from when the simulator had two
engines. The regression gate compares only ``cases`` and ``composite``,
so exit codes 0 / 3 (composite regression) / 4 (digest mismatch) must
not depend on that key, on either side of the comparison.
"""

import copy

import pytest

from repro.perf.compare import (
    EXIT_DIGEST_MISMATCH,
    EXIT_REGRESSION,
    compare,
)

BASE_DOC = {
    "schema": "repro-perf/1",
    "engine": "event",
    "spin": {"mops": 10.0, "iterations": 1},
    "repeat": 2,
    "cases": {
        "libq-1c-base": {
            "digest": "aaaa", "sim_cycles": 1000, "events": 500,
            "instructions": 100, "wall_seconds": 1.0,
            "sim_cycles_per_sec": 1000.0, "events_per_sec": 500.0,
            "normalized_score": 0.5,
        },
    },
    "composite": 0.5,
}


def doc(engine, score=0.5, digest="aaaa"):
    d = copy.deepcopy(BASE_DOC)
    d["engine"] = engine
    case = d["cases"]["libq-1c-base"]
    case["normalized_score"] = score
    case["digest"] = digest
    d["composite"] = score
    return d


ENGINE_PAIRS = [
    ("event", "event"),
    ("event", "batch"),
    ("batch", "event"),
    ("batch", "batch"),
]


@pytest.mark.parametrize("cur_engine,base_engine", ENGINE_PAIRS)
class TestGateIsEngineBlind:
    def test_pass_is_engine_independent(self, cur_engine, base_engine):
        code = compare(
            doc(cur_engine), doc(base_engine), progress=lambda *a: None
        )
        assert code == 0

    def test_regression_fires_identically(self, cur_engine, base_engine):
        code = compare(
            doc(cur_engine, score=0.1),
            doc(base_engine, score=0.5),
            progress=lambda *a: None,
        )
        assert code == EXIT_REGRESSION

    def test_digest_mismatch_fires_identically(self, cur_engine, base_engine):
        """Digest mismatch wins over regression, whatever the engines."""
        code = compare(
            doc(cur_engine, score=0.1, digest="bbbb"),
            doc(base_engine, score=0.5, digest="aaaa"),
            progress=lambda *a: None,
        )
        assert code == EXIT_DIGEST_MISMATCH


def test_baseline_without_engine_key_still_compares():
    """Baselines written before the engine field existed stay valid."""
    legacy = doc("event")
    del legacy["engine"]
    assert compare(doc("batch"), legacy, progress=lambda *a: None) == 0
