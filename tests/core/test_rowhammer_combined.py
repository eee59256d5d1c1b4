"""Tests for the RowHammer mitigation and the combined cache+ref mechanism."""

import numpy as np

from repro.controller import ChannelController, MemRequest, RequestType
from repro.core import CrowCacheRef, EntryOwner, RowHammerMitigation
from repro.dram import (
    AddressMapper,
    CellArray,
    DramChannel,
    DramGeometry,
    RetentionModel,
    TimingParameters,
)
from repro.dram.address import DramAddress
from repro.dram.commands import CommandKind, RowId, RowKind

GEO = DramGeometry(rows_per_bank=4096, channels=1)
TIMING = TimingParameters.lpddr4()
MAPPER = AddressMapper(GEO)


def address(row: int, col: int = 0, bank: int = 0) -> int:
    return MAPPER.encode(DramAddress(channel=0, rank=0, bank=bank, row=row, col=col))


def run_requests(controller, rows, serialize=True):
    now = 0
    for row in rows:
        request = MemRequest(
            RequestType.READ, address(row), MAPPER.decode(address(row))
        )
        while not controller.enqueue(request, now):
            now = max(controller.tick(now), now + 1)
        if serialize:
            while controller.pending_requests:
                now = max(controller.tick(now), now + 1)
            for _ in range(400):
                if all(not b.is_open for b in controller.channel.banks):
                    break
                now = max(controller.tick(now), now + 1)
    while controller.pending_requests:
        now = max(controller.tick(now), now + 1)
    # Let urgent plans drain.
    for _ in range(2000):
        wake = controller.tick(now)
        if controller.mechanism.urgent_plan(now) is None:
            break
        now = max(wake, now + 1)
    return now


class TestRowHammerMitigation:
    def _build(self, threshold=20, cells=None):
        channel = DramChannel(GEO, TIMING, cell_array=cells)
        mitigation = RowHammerMitigation(
            GEO, TIMING, hammer_threshold=threshold
        )
        controller = ChannelController(
            channel, mechanism=mitigation, refresh_enabled=False
        )
        return controller, channel, mitigation

    def test_detection_queues_victims(self):
        controller, channel, mitigation = self._build(threshold=5)
        issued = []
        channel.attach(lambda now, command: issued.append(command))
        run_requests(controller, [100] * 5)
        # Each victim copy carries the declared fully-restoring ACT-c.
        copies = [c for c in issued if c.kind is CommandKind.ACT_C]
        remap = mitigation.timing_variants()["act-c-remap"]
        assert len(copies) == 2
        assert all(c.timings is remap for c in copies)
        assert mitigation.counters[(0, 100)] >= 5
        # Victims 99 and 101 were copied to copy rows.
        assert mitigation.protected_victims == 2
        assert (0, 99) in mitigation.remap
        assert (0, 101) in mitigation.remap

    def test_victim_access_served_from_copy(self):
        controller, channel, mitigation = self._build(threshold=5)
        run_requests(controller, [100] * 5)
        srow = mitigation.service_row(0, 101)
        assert srow.kind is RowKind.COPY

    def test_below_threshold_no_remap(self):
        controller, channel, mitigation = self._build(threshold=50)
        run_requests(controller, [100] * 5)
        assert mitigation.protected_victims == 0

    def test_refresh_resets_counters(self):
        controller, channel, mitigation = self._build(threshold=50)
        run_requests(controller, [100] * 5)
        mitigation.on_refresh(range(96, 104), now=10**6)
        assert (0, 100) not in mitigation.counters

    def test_protects_data_in_functional_model(self):
        """With the mitigation, a hammered aggressor cannot corrupt the
        data a victim row serves (it lives in the copy row)."""
        cells = CellArray(GEO, clock_mhz=TIMING.clock_mhz, hammer_threshold=40)
        controller, channel, mitigation = self._build(threshold=10, cells=cells)
        victim = RowId.regular(101, GEO.rows_per_subarray)
        cells.set_row_data(0, victim, 0x5A5A5A5A)
        run_requests(controller, [100] * 60)
        # Physical victim row may have flipped bits...
        assert cells.disturbance_flips > 0
        # ...but the serving row (the copy) still holds the data.
        srow = mitigation.service_row(0, 101)
        assert srow.kind is RowKind.COPY
        assert np.all(
            cells.row_data(0, srow) == np.uint64(0x5A5A5A5A)
        )


class TestCombinedMechanism:
    def _build(self, weak=2, seed=5):
        retention = RetentionModel(
            GEO, target_interval_ms=128.0, weak_rows_per_subarray=weak, seed=seed
        )
        mechanism = CrowCacheRef(GEO, TIMING, retention)
        channel = DramChannel(GEO, TIMING)
        controller = ChannelController(
            channel, mechanism=mechanism, refresh_enabled=False
        )
        return controller, channel, mechanism, retention

    def test_ref_entries_pinned_cache_uses_rest(self):
        controller, channel, mechanism, retention = self._build(weak=2)
        ref_entries = mechanism.table.allocated_count(EntryOwner.REF)
        assert ref_entries == mechanism.ref.remapped_rows
        weak = retention.weak_regular_rows(0, 0, 0)
        strong = [i for i in range(512) if i not in weak][:3]
        run_requests(controller, strong + strong)
        # Cache entries appeared without evicting REF entries.
        assert mechanism.table.allocated_count(EntryOwner.REF) == ref_entries
        assert mechanism.table.allocated_count(EntryOwner.CACHE) > 0

    def test_remapped_row_activation_is_plain_act(self):
        controller, channel, mechanism, retention = self._build(weak=2)
        weak_index = sorted(retention.weak_regular_rows(0, 0, 0))[0]
        run_requests(controller, [weak_index])
        assert channel.counts[CommandKind.ACT] >= 1
        assert channel.counts[CommandKind.ACT_C] == 0

    def test_strong_row_reuse_hits_cache(self):
        controller, channel, mechanism, retention = self._build(weak=2)
        weak = retention.weak_regular_rows(0, 0, 0)
        strong = next(i for i in range(512) if i not in weak)
        run_requests(controller, [strong, strong, strong])
        assert channel.counts[CommandKind.ACT_T] >= 1
        assert mechanism.cache.hits >= 1

    def test_achieved_window_extends(self):
        _, _, mechanism, _ = self._build(weak=2)
        assert mechanism.achieved_refresh_window_ms == 128.0

    def test_cache_cannot_overflow_into_ref_ways(self):
        controller, channel, mechanism, retention = self._build(
            weak=GEO.copy_rows_per_subarray - 1
        )
        weak = retention.weak_regular_rows(0, 0, 0)
        strong = [i for i in range(512) if i not in weak][:4]
        run_requests(controller, strong * 2)
        # Only one way per subarray is available to the cache.
        for entries in [mechanism.table.entries(0, 0)]:
            cache_owned = [
                e for e in entries
                if e.allocated and e.owner is EntryOwner.CACHE
            ]
            assert len(cache_owned) <= 1
