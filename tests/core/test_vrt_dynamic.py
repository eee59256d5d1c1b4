"""End-to-end test of dynamic CROW-ref remapping through the controller
(paper Section 4.2.3: a row that periodic profiling finds weak, e.g. from
VRT, is remapped to a copy row on its next activation)."""

from repro.controller import ChannelController, MemRequest, RequestType
from repro.core import CrowCacheRef, CrowRef
from repro.dram import (
    AddressMapper,
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

#: Rows a periodic profiling pass could report as newly weak (VRT).
DISCOVERED = [(0, 7), (0, 600), (1, 100), (3, 2047)]


def drain(controller, now=0):
    while controller.pending_requests:
        now = max(controller.tick(now), now + 1)
    return now


class TestVrtFlow:
    def _build(self):
        retention = RetentionModel(
            GEO, target_interval_ms=128.0, weak_rows_per_subarray=0
        )
        ref = CrowRef(GEO, TIMING, retention)
        channel = DramChannel(GEO, TIMING)
        controller = ChannelController(channel, mechanism=ref,
                                       refresh_enabled=False)
        return ref, channel, controller

    def test_discovered_rows_get_remapped_on_next_activation(self):
        ref, channel, controller = self._build()
        accepted = [
            (bank, row) for bank, row in DISCOVERED
            if ref.request_remap(bank, row)
        ]
        assert accepted == DISCOVERED
        now = 0
        for bank, row in accepted:
            addr = MAPPER.encode(
                DramAddress(channel=0, rank=0, bank=bank, row=row, col=0)
            )
            controller.enqueue(
                MemRequest(RequestType.READ, addr, MAPPER.decode(addr)), now
            )
            now = drain(controller, now)
        # Every accepted discovery is now served from a copy row.
        for bank, row in accepted:
            assert ref.service_row(bank, row).kind is RowKind.COPY
        # The remap used ACT-c commands.
        assert channel.counts[CommandKind.ACT_C] == len(accepted)

    def test_remap_activation_fully_restores_copy(self):
        """The dynamically-remapped copy row must be usable alone, so the
        ACT-c must honor the full tRAS before precharge."""
        ref, channel, controller = self._build()
        issued = []
        channel.attach(lambda now, command: issued.append(command))
        ref.request_remap(0, 7)
        addr = MAPPER.encode(
            DramAddress(channel=0, rank=0, bank=0, row=7, col=0)
        )
        controller.enqueue(
            MemRequest(RequestType.READ, addr, MAPPER.decode(addr)), 0
        )
        now = drain(controller)
        # The copy was made with the declared fully-restoring set.
        [act_c] = [c for c in issued if c.kind is CommandKind.ACT_C]
        assert act_c.timings is ref.timing_variants()["act-c-remap"]
        # Force the row closed; the PRE must have waited the full tRAS.
        for _ in range(600):
            if not channel.banks[0].is_open:
                break
            now = max(controller.tick(now), now + 1)
        entry = ref.table.lookup(0, 0, 7)
        assert entry is not None
        assert entry.is_fully_restored

    def test_second_activation_uses_copy_alone(self):
        ref, channel, controller = self._build()
        ref.request_remap(0, 7)
        addr = MAPPER.encode(
            DramAddress(channel=0, rank=0, bank=0, row=7, col=0)
        )
        controller.enqueue(
            MemRequest(RequestType.READ, addr, MAPPER.decode(addr)), 0
        )
        now = drain(controller)
        for _ in range(600):
            if not channel.banks[0].is_open:
                break
            now = max(controller.tick(now), now + 1)
        controller.enqueue(
            MemRequest(RequestType.READ, addr, MAPPER.decode(addr)), now
        )
        drain(controller, now)
        assert channel.counts[CommandKind.ACT_C] == 1
        assert channel.counts[CommandKind.ACT] == 1   # plain ACT of the copy


class TestCombinedVrtFlow:
    """CROW-cache + CROW-ref serve a dynamic remap the way CROW-ref
    alone does: the remap's ACT-c is CROW-ref's, not a cache fill."""

    def test_pending_remap_is_served_by_the_ref_part(self):
        retention = RetentionModel(
            GEO, target_interval_ms=128.0, weak_rows_per_subarray=0
        )
        mech = CrowCacheRef(GEO, TIMING, retention)
        channel = DramChannel(GEO, TIMING)
        controller = ChannelController(channel, mechanism=mech,
                                       refresh_enabled=False)
        issued = []
        channel.attach(lambda now, command: issued.append(command))
        assert mech.ref.request_remap(0, 7)
        now = 0
        for row in (7, 9, 7, 9, 7):
            addr = MAPPER.encode(
                DramAddress(channel=0, rank=0, bank=0, row=row, col=0)
            )
            controller.enqueue(
                MemRequest(RequestType.READ, addr, MAPPER.decode(addr)), now
            )
            now = drain(controller, now)
        copy = mech.ref.remap[(0, 7)]
        assert (0, 7) not in mech.ref.pending_remaps
        assert mech.ref.dynamic_remaps == 1
        regular = RowId.regular(7, GEO.rows_per_subarray)
        first, *later = [
            command for command in issued
            if command.kind in (CommandKind.ACT, CommandKind.ACT_C)
            and command.rows[0] in (regular, copy)
        ]
        assert first.kind is CommandKind.ACT_C
        assert first.rows == (regular, copy)
        assert first.timings is mech.timing_variants()["act-c-remap"]
        assert len(later) == 2
        for command in later:
            assert command.kind is CommandKind.ACT
            assert command.rows == (copy,)
