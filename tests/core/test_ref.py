"""Tests for CROW-ref: profiling, remapping, refresh extension, fallback."""

import pytest

from repro.controller import ChannelController, MemRequest, RequestType
from repro.core import CrowRef, EntryOwner
from repro.dram import (
    AddressMapper,
    CellArray,
    DramChannel,
    DramGeometry,
    RetentionModel,
    TimingParameters,
)
from repro.dram.address import DramAddress
from repro.dram.commands import CommandKind, RowKind
from repro.units import ms_to_cycles

# A small geometry keeps profiling fast in unit tests.
GEO = DramGeometry(rows_per_bank=4096, channels=1)
TIMING = TimingParameters.lpddr4()
MAPPER = AddressMapper(GEO)


def make_ref(weak=3, seed=5, target=128.0):
    retention = RetentionModel(
        GEO, target_interval_ms=target, weak_rows_per_subarray=weak, seed=seed
    )
    return CrowRef(GEO, TIMING, retention), retention


class TestProfiling:
    def test_all_weak_rows_remapped(self):
        ref, retention = make_ref(weak=3)
        expected = GEO.banks_per_channel * GEO.subarrays_per_bank * 3
        assert ref.remapped_rows == expected
        assert ref.fallback_subarrays == 0

    def test_achieves_extended_window(self):
        ref, _ = make_ref(weak=3)
        assert ref.achieved_refresh_window_ms == 128.0

    def test_fallback_when_too_many_weak_rows(self):
        ref, _ = make_ref(weak=GEO.copy_rows_per_subarray + 1)
        assert ref.fallback_subarrays > 0
        assert ref.achieved_refresh_window_ms == 64.0

    def test_entries_are_pinned_ref_owned(self):
        ref, _ = make_ref(weak=2)
        assert ref.table.allocated_count(EntryOwner.REF) == ref.remapped_rows


class TestServiceRow:
    def test_weak_row_redirects_to_copy(self):
        ref, retention = make_ref(weak=2)
        weak_index = sorted(retention.weak_regular_rows(0, 0, 0))[0]
        srow = ref.service_row(0, weak_index)
        assert srow.kind is RowKind.COPY
        assert srow.subarray == 0

    def test_strong_row_unchanged(self):
        ref, retention = make_ref(weak=2)
        weak = retention.weak_regular_rows(0, 0, 0)
        strong = next(i for i in range(512) if i not in weak)
        srow = ref.service_row(0, strong)
        assert srow.kind is RowKind.REGULAR
        assert srow.index == strong

    def test_plan_uses_plain_act_with_default_timings(self):
        ref, retention = make_ref(weak=2)
        weak_index = sorted(retention.weak_regular_rows(0, 0, 0))[0]
        plan = ref.plan_activation(0, weak_index, now=0)
        assert plan.kind is CommandKind.ACT
        assert plan.timings is None


class TestDynamicRemap:
    def test_request_remap_then_activation_copies(self):
        ref, retention = make_ref(weak=0)
        assert ref.request_remap(0, 100)
        plan = ref.plan_activation(0, 100, now=0)
        assert plan.kind is CommandKind.ACT_C
        # The copy must be fully restored (it will be activated alone).
        assert plan.timings.tras_early == plan.timings.tras_full
        ref.on_activate(0, plan, 0)
        assert ref.service_row(0, 100).kind is RowKind.COPY
        assert not ref.pending_remaps

    def test_remap_fails_when_no_free_way(self):
        ref, _ = make_ref(weak=GEO.copy_rows_per_subarray)
        # Subarray 0 is full of REF-pinned entries.
        assert not ref.request_remap(0, 5)
        assert ref.remap_failures == 1

    def test_remap_idempotent_for_remapped_row(self):
        ref, retention = make_ref(weak=1)
        weak_index = sorted(retention.weak_regular_rows(0, 0, 0))[0]
        assert ref.request_remap(0, weak_index)
        assert not ref.pending_remaps


class TestEndToEndIntegrity:
    def test_weak_row_data_survives_extended_interval(self):
        """The headline CROW-ref property: with remapping, data written to
        a weak row survives a 128 ms refresh window that would otherwise
        lose it (the cell array enforces retention physics)."""
        retention = RetentionModel(
            GEO, target_interval_ms=128.0, weak_rows_per_subarray=3, seed=5
        )
        ref = CrowRef(GEO, TIMING, retention)
        cells = CellArray(
            GEO, clock_mhz=TIMING.clock_mhz, retention=retention
        )
        extended = TIMING.with_refresh_window(ref.achieved_refresh_window_ms)
        channel = DramChannel(GEO, extended, cell_array=cells)
        controller = ChannelController(channel, mechanism=ref,
                                       refresh_enabled=False)
        weak_index = sorted(retention.weak_regular_rows(0, 0, 0))[0]
        # Data lives in the copy row (remap happened at boot profiling).
        srow = ref.service_row(0, weak_index)
        cells.set_row_data(0, srow, 0xABCD, now=0)
        # Access the row just before the extended window expires.
        at_127ms = ms_to_cycles(127.0, TIMING.clock_mhz)
        addr = MAPPER.encode(
            DramAddress(channel=0, rank=0, bank=0, row=weak_index, col=0)
        )
        done = []
        request = MemRequest(
            RequestType.READ, addr, MAPPER.decode(addr),
            callback=lambda r, t: done.append(t),
        )
        controller.enqueue(request, at_127ms)
        now = at_127ms
        while controller.pending_requests:
            now = max(controller.tick(now), now + 1)
        assert done, "read served from the strong copy row without error"

    def test_unremapped_weak_row_would_fail(self):
        """Sanity: without CROW-ref the same access raises."""
        from repro.errors import DataIntegrityError
        from repro.dram.commands import Command, RowId

        retention = RetentionModel(
            GEO, target_interval_ms=128.0, weak_rows_per_subarray=3, seed=5
        )
        cells = CellArray(GEO, clock_mhz=TIMING.clock_mhz, retention=retention)
        weak_index = sorted(retention.weak_regular_rows(0, 0, 0))[0]
        row = RowId.regular(weak_index, GEO.rows_per_subarray)
        cells.set_row_data(0, row, 0xABCD, now=0)
        at_127ms = ms_to_cycles(127.0, TIMING.clock_mhz)
        act = Command(CommandKind.ACT, bank=0, rows=(row,))
        with pytest.raises(DataIntegrityError):
            cells.on_activate(act, at_127ms)
