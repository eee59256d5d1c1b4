"""End-to-end system tests: configuration, runner, metrics, mechanisms."""

import pytest

from repro import (
    SystemConfig,
    System,
    run_mix,
    run_workload,
    weighted_speedup,
    workload,
)
from repro.errors import ConfigError

FAST = dict(instructions=15_000, warmup_instructions=5_000)


def quick(name, mechanism="baseline", **config_kwargs):
    return run_workload(
        name, SystemConfig(mechanism=mechanism, **config_kwargs), **FAST
    )


class TestConfig:
    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(mechanism="magic")

    def test_baseline_has_no_copy_rows(self):
        geometry = SystemConfig(mechanism="baseline").resolved_geometry()
        assert geometry.copy_rows_per_subarray == 0

    def test_crow_gets_copy_rows(self):
        geometry = SystemConfig(mechanism="crow-cache", copy_rows=4)
        assert geometry.resolved_geometry().copy_rows_per_subarray == 4

    def test_salp_shrinks_subarrays(self):
        config = SystemConfig(mechanism="salp", salp_subarrays_per_bank=256)
        assert config.resolved_geometry().rows_per_subarray == 256

    def test_trace_count_must_match_cores(self):
        with pytest.raises(ConfigError):
            System(SystemConfig(cores=2), [workload("libq").trace(0)])

    def test_invalid_run_lengths_rejected(self):
        system = System(SystemConfig(), [workload("libq").trace(0)])
        with pytest.raises(ConfigError, match="instruction counts"):
            system.run(instructions=0)
        with pytest.raises(ConfigError, match="instruction counts"):
            system.run(warmup_instructions=-1)
        with pytest.raises(ConfigError, match="prewarm"):
            system.run(prewarm_accesses=-1)
        with pytest.raises(ConfigError, match="prewarm"):
            system.prewarm(-1)


class TestSingleCoreRuns:
    def test_baseline_run_completes(self):
        result = quick("libq")
        assert result.ipc > 0
        assert result.cycles > 0
        assert result.total_energy_nj > 0

    def test_deterministic(self):
        a = quick("h264-dec")
        b = quick("h264-dec")
        assert a.ipc == b.ipc
        assert a.cycles == b.cycles
        assert a.total_energy_nj == b.total_energy_nj

    def test_crow_cache_improves_locality_workload(self):
        base = quick("h264-dec")
        crow = quick("h264-dec", mechanism="crow-cache")
        assert crow.crow_hit_rate is not None and crow.crow_hit_rate > 0.5
        assert crow.speedup_over(base) > 1.02

    def test_no_workload_slows_down_with_crow_cache(self):
        """Paper Section 8.1.1: no application experiences slowdown."""
        for name in ("libq", "mcf", "streaming"):
            base = quick(name)
            crow = quick(name, mechanism="crow-cache")
            assert crow.speedup_over(base) > 0.99, name

    def test_ideal_crow_cache_upper_bounds_real(self):
        real = quick("h264-dec", mechanism="crow-cache")
        ideal = quick("h264-dec", mechanism="ideal-crow-cache")
        assert ideal.ipc >= real.ipc * 0.98

    def test_refresh_disabled_is_faster_at_high_density(self):
        # Long enough to span several tREFI periods (12500 cycles each).
        long = dict(instructions=50_000, warmup_instructions=5_000)
        base = run_workload(
            "mcf", SystemConfig(mechanism="baseline", density_gbit=64), **long
        )
        none = run_workload(
            "mcf",
            SystemConfig(
                mechanism="baseline", density_gbit=64, refresh_enabled=False
            ),
            **long,
        )
        assert base.controller_stats["refreshes"] > 0
        assert none.ipc > base.ipc

    def test_crow_ref_extends_window(self):
        result = quick("mcf", mechanism="crow-ref")
        assert result.refresh_window_ms == 128.0

    def test_crow_ref_fallback_keeps_base_window(self):
        result = quick(
            "libq", mechanism="crow-ref",
            weak_rows_per_subarray=9,  # more than the 8 copy rows
        )
        assert result.refresh_window_ms == 64.0

    def test_combined_mechanism_runs(self):
        result = quick("h264-dec", mechanism="crow-combined")
        assert result.refresh_window_ms == 128.0
        assert result.crow_hit_rate is not None

    def test_tldram_outperforms_crow_on_hits(self):
        crow = quick("h264-dec", mechanism="crow-cache")
        tld = quick("h264-dec", mechanism="tl-dram")
        assert tld.ipc >= crow.ipc   # Figure 11: TL-DRAM-8 is faster...

    def test_salp_runs_and_keeps_buffers_open(self):
        result = quick("h264-dec", mechanism="salp", salp_open_page=True)
        assert result.ipc > 0

    def test_chargecache_runs(self):
        result = quick("h264-dec", mechanism="chargecache")
        assert result.ipc > 0

    def test_prefetcher_helps_streaming(self):
        base = quick("libq")
        pf = quick("libq", prefetcher=True)
        assert pf.ipc > base.ipc * 1.01

    def test_mpki_measured(self):
        result = quick("mcf")
        assert result.core_mpki[0] > 10


class TestMultiCore:
    def test_four_core_run(self):
        mix = ["libq", "mcf", "h264-dec", "bzip2"]
        result = run_mix(
            mix, SystemConfig(cores=4), instructions=5_000,
            warmup_instructions=2_000,
        )
        assert len(result.core_ipcs) == 4
        assert all(ipc > 0 for ipc in result.core_ipcs)

    def test_weighted_speedup_bounds(self):
        ws = weighted_speedup([0.5, 0.5], [1.0, 1.0])
        assert ws == pytest.approx(1.0)
        with pytest.raises(ConfigError):
            weighted_speedup([1.0], [0.0])

    def test_contention_reduces_per_core_ipc(self):
        alone = quick("mcf")
        shared = run_mix(
            ["mcf", "mcf", "mcf", "mcf"], SystemConfig(cores=4),
            instructions=5_000, warmup_instructions=2_000,
        )
        assert max(shared.core_ipcs) < alone.ipc


class TestMetrics:
    def test_single_core_ipc_guard(self):
        result = run_mix(
            ["libq", "libq"], SystemConfig(cores=2),
            instructions=4_000, warmup_instructions=1_000,
        )
        with pytest.raises(ConfigError):
            _ = result.ipc

    def test_energy_ratio(self):
        a = quick("libq")
        b = quick("libq")
        assert a.energy_ratio(b) == pytest.approx(1.0)


class TestFunctionalCells:
    def test_crow_cache_with_functional_cells_has_no_integrity_errors(self):
        """Run the full stack with the cell array attached: the command
        stream the controller produces must satisfy every data-integrity
        rule (safe eviction, pair activation, retention)."""
        result = run_workload(
            "h264-dec",
            SystemConfig(mechanism="crow-cache", functional_cells=True),
            instructions=4_000,
            warmup_instructions=1_000,
        )
        assert result.ipc > 0
