"""Regression tests for per-core trace seed derivation.

The historical scheme ``seed * 16 + core`` aliased distinct
``(seed, core)`` pairs — mix seed 0's core 16 shared a trace stream with
mix seed 1's core 0 — which correlated supposedly-independent runs. The
hash-based :func:`~repro.sim.sweep.derive_trace_seed` cannot collide that
way and is process-stable (safe for cache keys and parallel workers).
"""

import repro.sim.sweep as sweep
from repro import SystemConfig
from repro.sim.sweep import derive_trace_seed


class TestDerivation:
    def test_old_scheme_collided_new_does_not(self):
        """Pin the motivating collision: (0, 16) vs (1, 0)."""
        old = lambda seed, core: seed * 16 + core  # noqa: E731
        assert old(0, 16) == old(1, 0)
        assert derive_trace_seed(0, 16) != derive_trace_seed(1, 0)

    def test_collision_free_over_a_grid(self):
        seeds = {
            derive_trace_seed(seed, core)
            for seed in range(64)
            for core in range(16)
        }
        assert len(seeds) == 64 * 16

    def test_values_are_pinned(self):
        """Changing the derivation silently invalidates every cached mix
        result; this pin forces such a change to be deliberate."""
        assert derive_trace_seed(0, 0) == 15378838894278201442
        assert derive_trace_seed(3, 2) == 18407496779156051040

    def test_deterministic_and_non_negative(self):
        assert derive_trace_seed(7, 3) == derive_trace_seed(7, 3)
        assert derive_trace_seed(7, 3) >= 0


class _StubSystem:
    def __init__(self, config, traces, warm_image=None):
        self.traces = traces

    def run(self, instructions, warmup_instructions, **snapshot_kwargs):
        return "stub-result"


class TestWiring:
    def test_run_mix_derives_per_core_seeds(self, monkeypatch):
        captured = []

        class Traceable:
            def trace(self, seed):
                captured.append(seed)
                return object()

        monkeypatch.setattr(sweep, "System", _StubSystem)
        monkeypatch.setattr(sweep, "_resolve", lambda w: Traceable())
        sweep.run_mix(["a", "b", "c"], SystemConfig(cores=3), seed=5)
        assert captured == [derive_trace_seed(5, i) for i in range(3)]

