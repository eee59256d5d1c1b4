"""Tests for the LLC model."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import CacheConfig, Llc
from repro.cpu.cache import DIRTY, PREFETCHED
from repro.errors import ConfigError
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.trace.stream import TraceStream
from repro.units import MIB


def tiny_cache(ways=2, sets=4) -> Llc:
    return Llc(CacheConfig(size_bytes=sets * ways * 64, ways=ways))


class TestConfig:
    def test_table2_defaults(self):
        config = CacheConfig()
        assert config.size_bytes == 8 * MIB
        assert config.ways == 8
        assert config.sets == 16384

    def test_rejects_non_dividing_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000)


class TestAccess:
    def test_cold_miss_then_hit(self):
        llc = tiny_cache()
        hit, wb, _ = llc.access(0x1000, False)
        assert not hit and wb is None
        hit, wb, _ = llc.access(0x1000, False)
        assert hit

    def test_same_line_different_offset_hits(self):
        llc = tiny_cache()
        llc.access(0x1000, False)
        hit, _, _ = llc.access(0x1020, False)
        assert hit

    def test_lru_eviction(self):
        llc = tiny_cache(ways=2, sets=1)
        llc.access(0x0, False)
        llc.access(0x40, False)
        llc.access(0x0, False)       # renew line 0
        llc.access(0x80, False)      # evicts line 0x40
        assert llc.contains(0x0)
        assert not llc.contains(0x40)

    def test_dirty_eviction_returns_writeback(self):
        llc = tiny_cache(ways=1, sets=1)
        llc.access(0x0, True)
        _, writeback, _ = llc.access(0x40, False)
        assert writeback == 0x0

    def test_clean_eviction_no_writeback(self):
        llc = tiny_cache(ways=1, sets=1)
        llc.access(0x0, False)
        _, writeback, _ = llc.access(0x40, False)
        assert writeback is None

    def test_write_marks_dirty_on_hit(self):
        llc = tiny_cache(ways=1, sets=1)
        llc.access(0x0, False)
        llc.access(0x0, True)
        _, writeback, _ = llc.access(0x40, False)
        assert writeback == 0x0

    def test_miss_rate(self):
        llc = tiny_cache()
        llc.access(0x0, False)
        llc.access(0x0, False)
        assert llc.miss_rate() == pytest.approx(0.5)


class TestPrefetch:
    def test_prefetch_fill_then_demand_hit_reports_useful(self):
        llc = tiny_cache()
        llc.fill_prefetch(0x1000)
        hit, _, was_prefetched = llc.access(0x1000, False)
        assert hit and was_prefetched
        # Second touch no longer counts as a prefetch hit.
        _, _, again = llc.access(0x1000, False)
        assert not again

    def test_prefetch_into_present_line_is_noop(self):
        llc = tiny_cache()
        llc.access(0x1000, False)
        assert llc.fill_prefetch(0x1000) is None
        assert llc.prefetch_fills == 0


class TestWritebackConsistency:
    @given(
        addresses=st.lists(
            st.integers(0, 63).map(lambda line: line * 64),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_writeback_addresses_were_written(self, addresses):
        """Property: every writeback address was previously written dirty
        and maps to the same set as the line that evicted it."""
        llc = tiny_cache(ways=2, sets=2)
        written = set()
        for i, address in enumerate(addresses):
            is_write = i % 3 == 0
            _, writeback, _ = llc.access(address, is_write)
            if is_write:
                written.add(address)
            if writeback is not None:
                assert writeback in written


class TestLineEncoding:
    def test_lines_are_flag_ints_and_snapshot_format_is_unchanged(self):
        """Every line is one small int (the DIRTY / PREFETCHED bits), and
        the LRU stack (each set's key order) and flags survive both a
        pickle round trip (snapshots) and the warm-image matrices."""
        config = SystemConfig(cores=1, seed=3, prefetcher=True)
        system = System(config, [TraceStream("mcf", 3)])
        system.run(1_000, 200, prewarm_accesses=5_000)
        values = [
            flags for entries in system.llc._sets for flags in entries.values()
        ]
        assert values
        assert all(type(flags) is int for flags in values)
        assert set(values) <= {0, DIRTY, PREFETCHED, DIRTY | PREFETCHED}

        llc = tiny_cache(ways=2, sets=2)
        assert llc.access(0x000, False) == (False, None, False)
        assert llc.access(0x000, True) == (True, None, False)  # write hit
        assert llc.fill_prefetch(0x080) is None
        assert llc.access(0x080, False) == (True, None, True)  # useful
        assert llc.access(0x100, False) == (False, 0x000, False)  # dirty
        assert llc.fill_prefetch(0x040) is None
        assert llc.access(0x0C0, True) == (False, None, False)
        assert llc.fill_prefetch(0x140) is None
        assert llc.fill_prefetch(0x1C0) == 0x0C0  # dirty victim
        assert llc.access(0x100, True) == (True, None, False)
        expected = [[(1, 0), (2, DIRTY)], [(2, PREFETCHED), (3, PREFETCHED)]]
        warmed = tiny_cache(ways=2, sets=2)
        warmed.load_matrices(*llc.lru_matrices())
        for cache in (llc, pickle.loads(pickle.dumps(llc)), warmed):
            assert [list(entries.items()) for entries in cache._sets] == (
                expected
            )
