"""Tests for the stats layer (repro.telemetry.stats)."""

import json
import math

import pytest

from repro.errors import ConfigError
from repro.telemetry.stats import (
    EpochSeries,
    Histogram,
    counter,
    export_digest,
    gauge,
    ratio,
)


class TestCounter:
    def test_export(self):
        assert counter(3, "activations") == {
            "kind": "counter", "desc": "activations", "value": 3,
        }


class TestRatio:
    def test_none_when_denominator_zero(self):
        r = ratio(0, 0)
        assert r["value"] is None
        assert r["numerator"] == 0.0 and r["denominator"] == 0.0

    def test_value_is_the_quotient_of_float_terms(self):
        r = ratio(3, 4, "hit rate")
        assert r == {
            "kind": "ratio", "desc": "hit rate",
            "numerator": 3.0, "denominator": 4.0, "value": 0.75,
        }
        assert isinstance(r["numerator"], float)


class TestHistogram:
    def test_exact_count_sum_min_max_mean(self):
        h = Histogram()
        for v in (10, 20, 30, 100):
            h.observe(v)
        assert h.count == 4
        assert h.total == 160
        assert h.min == 10 and h.max == 100
        assert h.mean == pytest.approx(40.0)

    def test_empty_percentiles_are_none(self):
        h = Histogram()
        assert h.mean is None
        assert h.percentile(50) is None
        export = h.export()
        assert export["p50"] is None and export["p99"] is None

    def test_percentiles_ordered_and_bounded(self):
        h = Histogram()
        for v in range(1, 1001):
            h.observe(v)
        p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
        assert p50 <= p95 <= p99
        assert h.min <= p50 and p99 <= h.max
        # Log buckets: percentiles land in the right order of magnitude.
        assert 250 < p50 < 760
        assert p95 > 500

    def test_single_value_percentiles_exact(self):
        h = Histogram()
        for _ in range(10):
            h.observe(42)
        assert h.percentile(50) == pytest.approx(42)
        assert h.percentile(99) == pytest.approx(42)

    def test_negative_clamps_to_zero(self):
        h = Histogram()
        h.observe(-5)
        assert h.min == 0 and h.total == 0

    def test_percentile_range_validated(self):
        with pytest.raises(ConfigError):
            Histogram().percentile(101)


class TestEpochSeries:
    def test_non_finite_becomes_gap(self):
        s = EpochSeries(epoch_cycles=100)
        s.append(1.0)
        s.append(float("nan"))
        s.append(float("inf"))
        s.append(None)
        assert s.samples == [1.0, None, None, None]
        assert len(s) == 4

    def test_export_rounds(self):
        s = EpochSeries(epoch_cycles=100)
        s.append(1.23456789)
        assert s.export()["samples"] == [1.234568]
        assert s.export()["epoch_cycles"] == 100

    def test_rejects_bad_epoch(self):
        with pytest.raises(ConfigError):
            EpochSeries(epoch_cycles=0)


class TestRegistry:
    """The registry export (what ``repro stats --json`` writes): a tree
    of plain nested dicts, and its content digest."""

    def test_export_shape(self):
        export = {"dram": {"acts": counter(2), "residency": gauge(0.5)}}
        assert export == {
            "dram": {
                "acts": {"kind": "counter", "desc": "", "value": 2},
                "residency": {"kind": "gauge", "desc": "", "value": 0.5},
            }
        }
        assert json.loads(json.dumps(export)) == export

    def test_digest_stable_and_content_sensitive(self):
        def build(n):
            return {"g": {"x": counter(n)}}

        assert export_digest(build(3)) == export_digest(build(3))
        assert export_digest(build(3)) != export_digest(build(4))

    def test_digest_ignores_key_order(self):
        assert export_digest({"z": counter(1), "a": counter(2)}) == \
            export_digest({"a": counter(2), "z": counter(1)})

    def test_export_digest_handles_non_finite(self):
        assert export_digest({"v": float("nan")}) == \
            export_digest({"v": None})
        assert isinstance(export_digest({"v": math.pi}), str)
