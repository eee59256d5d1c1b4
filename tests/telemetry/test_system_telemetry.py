"""End-to-end telemetry: system wiring, determinism, defined values."""

import json

import pytest

from repro import SystemConfig, run_workload
from repro.sim.system import System
from repro.trace.stream import TraceStream

FAST = dict(instructions=8_000, warmup_instructions=2_000)


def telemetry_run(name="mcf", mechanism="crow-cache", **config_kwargs):
    config_kwargs.setdefault("telemetry", True)
    config_kwargs.setdefault("telemetry_epoch_cycles", 500)
    return run_workload(
        name, SystemConfig(mechanism=mechanism, **config_kwargs), **FAST
    )


class TestWiring:
    def test_disabled_by_default(self):
        result = run_workload("libq", SystemConfig(), **FAST)
        assert result.telemetry is None
        assert result.telemetry_digest() is None

    def test_export_structure(self):
        result = telemetry_run()
        export = result.telemetry
        assert set(export) >= {"controller", "dram", "crow", "llc",
                               "cores", "epochs", "meta"}
        ch0 = export["controller"]["ch0"]
        assert ch0["reads_served"]["value"] > 0
        assert ch0["read_latency"]["count"] > 0
        assert ch0["read_latency"]["p95"] >= ch0["read_latency"]["p50"]
        assert export["meta"]["mechanism"] == "crow-cache"

    def test_epochs_populated(self):
        result = telemetry_run()
        series = result.telemetry["epochs"]["ipc"]
        assert series["epoch_cycles"] == 500
        assert len(series["samples"]) >= 2
        assert any(s is not None and s > 0 for s in series["samples"])

    def test_latency_histogram_agrees_with_controller_sum(self):
        result = telemetry_run()
        ch0 = result.telemetry["controller"]["ch0"]
        hist = ch0["read_latency"]
        avg = ch0["read_latency_avg"]
        # Same events observed through both paths.
        assert hist["count"] == avg["denominator"]
        assert hist["sum"] == avg["numerator"]

    def test_trace_disabled_unless_requested(self):
        result = telemetry_run()
        assert "trace" not in result.telemetry

    def test_trace_capture(self):
        result = telemetry_run(telemetry_trace_capacity=128)
        trace = result.telemetry["trace"]
        assert trace["capacity"] == 128
        assert trace["recorded"] > 0
        assert len(trace["events"]) <= 128
        cmds = {e["cmd"] for e in trace["events"]}
        assert cmds & {"ACT", "ACT_C", "ACT_T", "RD", "WR", "PRE"}

    def test_crow_ref_counters(self):
        result = telemetry_run(mechanism="crow-ref")
        crow = result.telemetry["crow"]
        assert crow["ref_remapped_rows"]["value"] > 0


class TestDeterminism:
    def test_byte_identical_across_runs(self):
        first = telemetry_run(telemetry_trace_capacity=64)
        second = telemetry_run(telemetry_trace_capacity=64)
        a = json.dumps(first.telemetry, sort_keys=True)
        b = json.dumps(second.telemetry, sort_keys=True)
        assert a == b
        assert first.telemetry_digest() == second.telemetry_digest()

    def test_digest_differs_across_seeds(self):
        first = telemetry_run(seed=1)
        second = telemetry_run(seed=2)
        assert first.telemetry_digest() != second.telemetry_digest()

    def test_no_wall_clock_in_export(self):
        export = telemetry_run().telemetry
        # Every timestamp is a simulation tick bounded by the run length.
        meta = export["meta"]
        assert meta["measure_start"] < meta["measure_end"]
        assert meta["cycles"] == meta["measure_end"] - meta["measure_start"]


class TestDefinedEmptyValues:
    """Satellite: controller metrics must be well-defined with no traffic.

    The served forms are telemetry's: the ``row_hit_rate`` ratio and the
    ``read_latency`` histogram read ``None`` (undefined), not 0.0, on a
    controller that has served nothing.
    """

    def _idle_controller_export(self):
        system = System(
            SystemConfig(telemetry=True), [TraceStream("libq", 0)]
        )
        return system.telemetry.finalize(0, 0)["controller"]["ch0"]

    def test_row_hit_rate_defined_without_traffic(self):
        ratio = self._idle_controller_export()["row_hit_rate"]
        assert ratio["denominator"] == 0
        assert ratio["value"] is None

    def test_average_read_latency_defined_without_traffic(self):
        export = self._idle_controller_export()
        assert export["read_latency"]["count"] == 0
        assert export["read_latency"]["mean"] is None
        assert export["read_latency_avg"]["value"] is None

    def test_telemetry_ratio_distinguishes_no_traffic(self):
        # A telemetry ratio reports None (undefined), not 0.0, when the
        # denominator is zero.
        from repro.telemetry.stats import ratio

        assert ratio(0, 0)["value"] is None
        assert ratio(0, 5)["value"] == 0.0


class TestConfigValidation:
    def test_epoch_cycles_validated(self):
        with pytest.raises(Exception):
            SystemConfig(telemetry_epoch_cycles=0)

    def test_trace_capacity_validated(self):
        with pytest.raises(Exception):
            SystemConfig(telemetry_trace_capacity=-1)

    def test_telemetry_changes_cache_key(self):
        from repro.sim.campaign import config_digest

        off = SystemConfig()
        on = SystemConfig(telemetry=True)
        assert config_digest(off) != config_digest(on)

