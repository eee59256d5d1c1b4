"""Tests for the core model, virtual memory, and the RPT prefetcher."""

import pickle

import pytest

from repro.cpu import CoreConfig, RptPrefetcher, VirtualMemory
from repro.cpu.core import Core, TraceRecord
from repro.errors import CapacityError, ConfigError
from repro.units import MIB


class FakePort:
    """Port double: configurable hit/miss/stall behaviour per access."""

    def __init__(self, outcomes=None, latency=4):
        self.outcomes = list(outcomes or [])
        self.latency = latency
        self.pending = []
        self.accesses = []

    def access(self, core_id, vaddr, is_write, pc, now, on_complete):
        outcome = self.outcomes.pop(0) if self.outcomes else "hit"
        self.accesses.append((vaddr, is_write, outcome))
        if outcome == "stall":
            return "stall"
        self.pending.append((now + self.latency, on_complete))
        return outcome

    def deliver(self, now):
        ready = [p for p in self.pending if p[0] <= now]
        self.pending = [p for p in self.pending if p[0] > now]
        for finish, fn in ready:
            fn(finish)


def run_core(trace, port, ticks=4000, config=None):
    core = Core(0, iter(trace), port, config or CoreConfig())
    now = 0
    for _ in range(ticks):
        port.deliver(now)
        wake = core.tick(now)
        if core.done and not port.pending:
            break
        now = max(now + 1, min(wake, now + 16))
    return core, now


class TestCoreConfig:
    def test_slots_per_tick(self):
        assert CoreConfig().slots_per_tick == 10   # 4-wide @ 2.5x clock

    def test_rejects_slow_cpu(self):
        with pytest.raises(ConfigError):
            CoreConfig(cpu_clock_mhz=100.0, mem_clock_mhz=1600.0)


class TestCoreExecution:
    def test_retires_bubbles_at_issue_width(self):
        port = FakePort()
        trace = [TraceRecord(99, 0x1000, False, 0)]
        core, now = run_core(trace, port)
        assert core.retired == 100
        assert core.done

    def test_fast_forward_matches_slow_path(self):
        """A single long bubble run retires in bubbles/slots ticks."""
        port = FakePort()
        trace = [TraceRecord(10_000, 0x1000, False, 0)]
        core, now = run_core(trace, port, ticks=3000)
        assert core.retired == 10_001
        assert now >= 10_000 // CoreConfig().slots_per_tick

    def test_load_blocks_retirement_until_completion(self):
        port = FakePort(outcomes=["miss"], latency=500)
        trace = [TraceRecord(0, 0x1000, False, 0), TraceRecord(50, 0x2000, False, 0)]
        core = Core(0, iter(trace), port)
        now = core.tick(0)
        # The load is outstanding; the window holds it plus later bubbles.
        assert core.retired < 10
        assert core.outstanding == 1

    def test_store_retires_immediately(self):
        port = FakePort(outcomes=["miss"], latency=500)
        trace = [TraceRecord(0, 0x1000, True, 0)]
        core = Core(0, iter(trace), port)
        core.tick(0)
        assert core.retired == 1          # store retired despite miss

    def test_mshr_limit_stalls_issue(self):
        port = FakePort(outcomes=["miss"] * 20, latency=10_000)
        trace = [TraceRecord(0, 0x1000 + i * 64, False, 0) for i in range(20)]
        core = Core(0, iter(trace), port, CoreConfig(mshrs=8))
        for now in range(0, 40, 1):
            core.tick(now)
        assert core.outstanding == 8

    def test_stall_on_port_retries(self):
        port = FakePort(outcomes=["stall", "hit"])
        trace = [TraceRecord(0, 0x1000, False, 0)]
        core = Core(0, iter(trace), port)
        wake = core.tick(0)
        assert wake > 0
        core.tick(wake)
        port.deliver(wake + 10)
        core.tick(wake + 10)
        assert core.retired == 1

    def test_ipc_measurement_window(self):
        port = FakePort()
        trace = [TraceRecord(999, 0x1000, False, 0) for _ in range(40)]
        core = Core(0, iter(trace), port)
        now = 0
        while core.retired < 1000:
            port.deliver(now)
            now = max(now + 1, min(core.tick(now), now + 16))
        core.begin_measurement(now, target_instructions=2000)
        while core.finish_cycle is None:
            port.deliver(now)
            now = max(now + 1, min(core.tick(now), now + 16))
        # Pure bubbles: IPC equals the issue width (4 per CPU cycle).
        assert core.ipc() == pytest.approx(4.0, rel=0.1)


class TestVirtualMemory:
    def test_same_page_same_frame(self):
        vm = VirtualMemory(64 * MIB, seed=1)
        a = vm.translate(0, 0x1000)
        b = vm.translate(0, 0x1FFF)
        assert a // 4096 == b // 4096
        assert b - a == 0xFFF

    def test_different_pages_random_frames(self):
        vm = VirtualMemory(64 * MIB, seed=1)
        frames = {vm.translate(0, i * 4096) // 4096 for i in range(64)}
        assert len(frames) == 64
        # Random placement: not simply consecutive.
        assert frames != set(range(64))

    def test_address_spaces_are_isolated(self):
        vm = VirtualMemory(64 * MIB, seed=1)
        assert vm.translate(0, 0x1000) != vm.translate(1, 0x1000)

    def test_deterministic(self):
        a = VirtualMemory(64 * MIB, seed=9).translate(0, 0x5000)
        b = VirtualMemory(64 * MIB, seed=9).translate(0, 0x5000)
        assert a == b

    def test_exhaustion(self):
        vm = VirtualMemory(8192, seed=1)  # two frames
        vm.translate(0, 0)
        vm.translate(0, 4096)
        with pytest.raises(CapacityError):
            vm.translate(0, 8192)

    def test_pickle_stores_frames_once_and_allocates_on_identically(self):
        """The used-frame set is rebuilt from the page table on unpickle,
        so a restored allocator draws the same frames, collisions
        included, as the original."""
        vm = VirtualMemory(1 * MIB, seed=3)  # 256 frames: collisions
        for page in range(100):
            vm.translate(0, page * 4096)
        assert "_used_frames" not in vm.__getstate__()
        restored = pickle.loads(pickle.dumps(vm))
        assert restored._used_frames == set(vm._page_table.values())
        more = [(asid, page * 4096) for asid in (0, 1) for page in range(60)]
        assert [restored.translate(*access) for access in more] == [
            vm.translate(*access) for access in more
        ]


class TestRptPrefetcher:
    def test_detects_constant_stride(self):
        pf = RptPrefetcher(degree=2)
        assert pf.observe(0x400, 0x1000) == []
        assert pf.observe(0x400, 0x1100) == []      # stride learned
        targets = pf.observe(0x400, 0x1200)          # stride confirmed
        assert targets == [0x1300, 0x1400]

    def test_ignores_irregular_pattern(self):
        pf = RptPrefetcher()
        pf.observe(0x400, 0x1000)
        pf.observe(0x400, 0x1100)
        assert pf.observe(0x400, 0x5000) == []

    def test_streams_tracked_per_pc(self):
        pf = RptPrefetcher()
        pf.observe(0x400, 0x1000)
        pf.observe(0x500, 0x9000)
        pf.observe(0x400, 0x1040)
        pf.observe(0x500, 0x9040)
        assert pf.observe(0x400, 0x1080) != []
        assert pf.observe(0x500, 0x9080) != []

    def test_table_capacity_lru(self):
        pf = RptPrefetcher(entries=2)
        pf.observe(1, 0x1000)
        pf.observe(2, 0x2000)
        pf.observe(3, 0x3000)    # evicts pc=1
        pf.observe(1, 0x1040)    # re-learns from scratch
        assert pf.observe(1, 0x1080) == []   # only transient by now

    def test_zero_stride_never_prefetches(self):
        pf = RptPrefetcher()
        for _ in range(5):
            assert pf.observe(7, 0x4000) == []
