"""Tests for CROW-cache: planning, bookkeeping, and the data-integrity
invariant under a real controller command stream."""

import pytest

from repro.controller import ChannelController, ControllerConfig, MemRequest, RequestType
from repro.core import CrowCache, CrowTable
from repro.dram import (
    AddressMapper,
    CellArray,
    CrowTimings,
    DramChannel,
    DramGeometry,
    TimingParameters,
)
from repro.dram.address import DramAddress
from repro.dram.commands import CommandKind

GEO = DramGeometry()
TIMING = TimingParameters.lpddr4()
CROW = CrowTimings.from_factors(TIMING)
MAPPER = AddressMapper(GEO)


def make_cache(**kwargs) -> CrowCache:
    return CrowCache(GEO, TIMING, crow=CROW, **kwargs)


def address(row: int, col: int = 0, bank: int = 0) -> int:
    return MAPPER.encode(DramAddress(channel=0, rank=0, bank=bank, row=row, col=col))


class TestPlanning:
    def test_first_activation_is_copy(self):
        cache = make_cache()
        plan = cache.plan_activation(0, 100, now=0)
        assert plan.kind is CommandKind.ACT_C

    def test_plan_is_side_effect_free(self):
        cache = make_cache()
        cache.plan_activation(0, 100, now=0)
        cache.plan_activation(0, 100, now=0)
        assert cache.misses == 0
        assert cache.table.allocated_count() == 0

    def test_hit_after_copy(self):
        cache = make_cache()
        plan = cache.plan_activation(0, 100, now=0)
        cache.on_activate(0, plan, 0)
        hit = cache.plan_activation(0, 100, now=10)
        assert hit.kind is CommandKind.ACT_T
        assert cache.misses == 1

    def test_hit_timings_depend_on_restoration(self):
        cache = make_cache()
        plan = cache.plan_activation(0, 100, now=0)
        cache.on_activate(0, plan, 0)
        entry = cache.table.lookup(0, 0, 100)
        entry.is_fully_restored = True
        fast = cache.plan_activation(0, 100, now=10)
        assert fast.timings.trcd == CROW.trcd_act_t_full
        entry.is_fully_restored = False
        slow = cache.plan_activation(0, 100, now=10)
        assert slow.timings.trcd == CROW.trcd_act_t_partial

    def test_partial_victim_forces_restore_plan(self):
        cache = make_cache(evict_partial="restore")
        # Fill every way of subarray 0 with partially-restored rows.
        for i in range(GEO.copy_rows_per_subarray):
            plan = cache.plan_activation(0, i, now=i)
            cache.on_activate(0, plan, i)   # allocate() marks not restored
        plan = cache.plan_activation(0, 100, now=99)
        assert plan.kind is CommandKind.ACT_T
        assert plan.is_restore
        # The restore plan honours the full tRAS.
        assert plan.timings.tras_early == plan.timings.tras_full

    def test_partial_victims_bypass_by_default(self):
        cache = make_cache()
        for i in range(GEO.copy_rows_per_subarray):
            plan = cache.plan_activation(0, i, now=i)
            cache.on_activate(0, plan, i)
        plan = cache.plan_activation(0, 100, now=99)
        assert plan.kind is CommandKind.ACT
        assert not plan.is_restore

    def test_fully_restored_victim_preferred_over_lru(self):
        cache = make_cache()
        for i in range(GEO.copy_rows_per_subarray):
            plan = cache.plan_activation(0, i, now=i)
            cache.on_activate(0, plan, i)
        # Make the *most recently used* entry the only restored one.
        newest = cache.table.lookup(0, 0, GEO.copy_rows_per_subarray - 1)
        newest.is_fully_restored = True
        plan = cache.plan_activation(0, 100, now=99)
        assert plan.kind is CommandKind.ACT_C
        assert plan.rows[1].index == newest.way

    def test_rejects_unknown_evict_policy(self):
        import pytest as _pytest
        from repro.errors import ConfigError

        with _pytest.raises(ConfigError):
            make_cache(evict_partial="magic")

    def test_clean_victim_is_evicted_directly(self):
        cache = make_cache()
        for i in range(GEO.copy_rows_per_subarray):
            plan = cache.plan_activation(0, i, now=i)
            cache.on_activate(0, plan, i)
            entry = cache.table.lookup(0, 0, i)
            entry.is_fully_restored = True
        plan = cache.plan_activation(0, 100, now=99)
        assert plan.kind is CommandKind.ACT_C
        cache.on_activate(0, plan, 99)
        assert cache.evictions == 1
        assert cache.table.lookup(0, 0, 0) is None  # LRU row evicted

    def test_no_cache_ways_falls_back_to_plain_act(self):
        table = CrowTable(GEO)
        for way in range(GEO.copy_rows_per_subarray):
            table.mark_unusable(0, 0, way)
        cache = CrowCache(GEO, TIMING, crow=CROW, table=table)
        plan = cache.plan_activation(0, 100, now=0)
        assert plan.kind is CommandKind.ACT
        cache.on_activate(0, plan, 0)
        assert cache.uncached == 1

    def test_partial_restore_disabled_uses_full_tras(self):
        cache = CrowCache(GEO, TIMING, crow=CROW, allow_partial_restore=False)
        plan = cache.plan_activation(0, 100, now=0)
        assert plan.timings.tras_early == plan.timings.tras_full


class TestHitRate:
    def test_hit_rate_counts_demand_activations(self):
        cache = make_cache()
        for now, row in enumerate([1, 1, 1, 2]):
            plan = cache.plan_activation(0, row, now)
            cache.on_activate(0, plan, now)
        assert cache.hits == 2
        assert cache.misses == 2
        assert cache.hit_rate() == pytest.approx(0.5)


class TestControllerIntegration:
    def _build(self, rows, cells=False, timeout=75.0, serialize=False,
               evict_partial="bypass"):
        cell_array = (
            CellArray(GEO, clock_mhz=TIMING.clock_mhz) if cells else None
        )
        channel = DramChannel(GEO, TIMING, cell_array=cell_array)
        cache = CrowCache(GEO, TIMING, crow=CROW, evict_partial=evict_partial)
        controller = ChannelController(
            channel,
            mechanism=cache,
            config=ControllerConfig(row_timeout_ns=timeout),
            refresh_enabled=False,
        )
        now = 0

        def drain():
            nonlocal now
            limit = now + 10_000_000
            while controller.pending_requests and now < limit:
                now = max(controller.tick(now), now + 1)
            assert controller.pending_requests == 0

        def idle_until_closed():
            nonlocal now
            for _ in range(1000):
                if all(not bank.is_open for bank in channel.banks):
                    return
                now = max(controller.tick(now), now + 1)

        for row in rows:
            request = MemRequest(
                RequestType.READ, address(row), MAPPER.decode(address(row))
            )
            while not controller.enqueue(request, now):
                now = max(controller.tick(now), now + 1)
            if serialize:
                drain()
                idle_until_closed()
        drain()
        return controller, channel, cache, cell_array

    def test_reuse_pattern_hits_crow_table(self):
        rows = [1, 2, 1, 2, 1, 2]
        controller, channel, cache, _ = self._build(rows, serialize=True)
        assert channel.counts[CommandKind.ACT_T] >= 2
        assert cache.hit_rate() > 0.4

    def test_integrity_with_cell_array_random_rows(self):
        """Heavy eviction pressure with the functional layer attached:
        the safe-eviction protocol must prevent any DataIntegrityError."""
        import random

        random.seed(7)
        # Rows confined to one subarray to maximize eviction pressure.
        # Burst mode: back-to-back conflicts force early precharges, so
        # pairs become partially restored and evictions need restores.
        # The 'restore' policy exercises the Section 4.1.4 protocol.
        rows = [random.randrange(0, 24) for _ in range(120)]
        controller, channel, cache, cells = self._build(
            rows, cells=True, evict_partial="restore"
        )
        assert cache.restores > 0, "test should exercise the restore path"
        assert channel.counts[CommandKind.ACT_T] > 0

    def test_restore_fraction_is_small_for_low_pressure(self):
        rows = [i % 4 for i in range(100)]
        controller, channel, cache, _ = self._build(rows, serialize=True)
        assert cache.restore_fraction() < 0.1


class TestRefreshInteraction:
    def test_refresh_marks_entries_restored(self):
        cache = make_cache()
        plan = cache.plan_activation(0, 100, now=0)
        cache.on_activate(0, plan, 0)
        entry = cache.table.lookup(0, 0, 100)
        entry.is_fully_restored = False
        cache.on_refresh(range(96, 104), now=50)
        assert entry.is_fully_restored

    def test_refresh_of_other_rows_leaves_entry(self):
        cache = make_cache()
        plan = cache.plan_activation(0, 100, now=0)
        cache.on_activate(0, plan, 0)
        entry = cache.table.lookup(0, 0, 100)
        entry.is_fully_restored = False
        cache.on_refresh(range(0, 8), now=50)
        assert not entry.is_fully_restored
