"""CROW-ref: weak-row remapping to extend the refresh interval (Section 4.2).

At construction ("system boot"), CROW-ref profiles every subarray through
the retention model, retires retention-weak *copy* rows from service
(footnote 5), and remaps each weak *regular* row to a strong copy row in
the same subarray. If every subarray's weak rows fit in its copy rows, the
whole channel can refresh at the extended interval (e.g. 128 ms instead of
64 ms); otherwise CROW-ref falls back to the default interval, which keeps
correctness at the cost of the energy/performance benefit (Section 4.2.1).

Remapped rows are *redirected*, not duplicated: the regular row is never
used again, so activations of a remapped row are plain ``ACT`` commands to
the copy row with conventional timings.

Dynamic (runtime/VRT) remapping is supported via :meth:`request_remap`:
the next activation of the victim row becomes a fully-restoring ``ACT-c``
that copies its data into a free copy row, after which the row is served
from the copy (Section 4.2.3).
"""

from __future__ import annotations

from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.dram.commands import ActTimings, CommandKind, RowId
from repro.dram.retention import RetentionModel
from repro.dram.timing import CrowTimings, TimingParameters
from repro.core.cache import crow_safe_copy_timings
from repro.core.table import CrowTable, EntryOwner

__all__ = ["CrowRef"]


class CrowRef(Mechanism):
    """The CROW-ref mechanism (one instance per channel)."""

    name = "crow-ref"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        retention: RetentionModel,
        table: CrowTable | None = None,
        crow: CrowTimings | None = None,
        channel: int = 0,
        base_window_ms: float = 64.0,
    ) -> None:
        super().__init__(geometry, timing)
        self.retention = retention
        self.table = table if table is not None else CrowTable(geometry)
        self.crow = crow if crow is not None else CrowTimings.from_factors(timing)
        self.channel = channel
        self.base_window_ms = base_window_ms
        self.target_window_ms = retention.target_interval_ms
        self.remap: dict[tuple[int, int], RowId] = {}
        self.pending_remaps: set[tuple[int, int]] = set()
        self.remap_failures = 0
        self.fallback_subarrays = 0
        #: Runtime (VRT) remaps completed via ACT-c (Section 4.2.3).
        self.dynamic_remaps = 0
        self._profile()

    # ------------------------------------------------------------------
    # Boot-time profiling and remapping (Sections 4.2.1-4.2.2)
    # ------------------------------------------------------------------
    def _profile(self) -> None:
        geometry = self.geometry
        rows_per_subarray = geometry.rows_per_subarray
        for bank in range(geometry.banks_per_channel):
            for subarray in range(geometry.subarrays_per_bank):
                weak = self.retention.weak_regular_rows(
                    self.channel, bank, subarray
                )
                weak_copies = self.retention.weak_copy_rows(
                    self.channel, bank, subarray
                )
                usable_ways = [
                    w
                    for w in range(geometry.copy_rows_per_subarray)
                    if w not in weak_copies
                ]
                if len(weak) > len(usable_ways):
                    self.fallback_subarrays += 1
                    continue
                for way in weak_copies:
                    self.table.mark_unusable(bank, subarray, way)
                for index, way in zip(sorted(weak), usable_ways):
                    entry = self.table.entry_for_copy_row(bank, subarray, way)
                    self.table.allocate(
                        bank, subarray, index, EntryOwner.REF, now=0, entry=entry
                    )
                    entry.is_fully_restored = True
                    bank_row = subarray * rows_per_subarray + index
                    self.remap[(bank, bank_row)] = RowId.copy(subarray, way)

    @property
    def achieved_refresh_window_ms(self) -> float:
        """The refresh window this channel can safely run at."""
        if self.fallback_subarrays:
            return self.base_window_ms
        return self.target_window_ms

    @property
    def remapped_rows(self) -> int:
        """Weak regular rows currently remapped to copy rows."""
        return len(self.remap)

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def service_row(self, bank: int, row: int) -> RowId:
        """Physical row that serves requests for ``row`` (remap-aware)."""
        mapped = self.remap.get((bank, row))
        if mapped is not None:
            return mapped
        return RowId.regular(row, self.geometry.rows_per_subarray)

    def plan_activation(self, bank: int, row: int, now: int) -> ActivationPlan:
        """Mechanism hook: choose the activation command for ``row``."""
        if (bank, row) in self.pending_remaps:
            plan = self._plan_dynamic_remap(bank, row)
            if plan is not None:
                return plan
        return ActivationPlan(
            kind=CommandKind.ACT, rows=(self.service_row(bank, row),)
        )

    def _plan_dynamic_remap(self, bank: int, row: int) -> ActivationPlan | None:
        subarray, index = divmod(row, self.geometry.rows_per_subarray)
        entry = self.table.free_entry(bank, subarray)
        if entry is None:
            return None
        regular = RowId.regular(row, self.geometry.rows_per_subarray)
        return ActivationPlan(
            kind=CommandKind.ACT_C,
            rows=(regular, RowId.copy(subarray, entry.way)),
            timings=crow_safe_copy_timings(self.crow),
        )

    def timing_variants(self) -> dict[str, ActTimings]:
        return {"act-c-remap": crow_safe_copy_timings(self.crow)}

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        """Mechanism hook: an activation command was issued."""
        if plan.kind is not CommandKind.ACT_C:
            return
        regular, copy = plan.rows
        bank_row = regular.bank_row(self.geometry.rows_per_subarray)
        if (bank, bank_row) not in self.pending_remaps:
            return
        entry = self.table.entry_for_copy_row(bank, copy.subarray, copy.index)
        self.table.allocate(
            bank, copy.subarray, regular.index, EntryOwner.REF, now, entry
        )
        self.remap[(bank, bank_row)] = copy
        self.pending_remaps.discard((bank, bank_row))
        self.dynamic_remaps += 1

    def on_precharge(self, bank: int, result, now: int) -> None:
        """Mechanism hook: a precharge closed ``result.rows``."""
        if len(result.rows) != 2:
            return
        _regular, copy = result.rows
        entry = self.table.entry_for_copy_row(bank, copy.subarray, copy.index)
        if entry.allocated and entry.owner is EntryOwner.REF:
            entry.is_fully_restored = result.fully_restored

    # ------------------------------------------------------------------
    # Dynamic (VRT) remapping — Section 4.2.3
    # ------------------------------------------------------------------
    def request_remap(self, bank: int, row: int) -> bool:
        """Ask for ``row`` to be remapped at its next activation.

        Returns False (and counts a failure) when the subarray has no free
        copy row left.
        """
        if (bank, row) in self.remap:
            return True
        subarray = row // self.geometry.rows_per_subarray
        if self.table.free_entry(bank, subarray) is None:
            self.remap_failures += 1
            return False
        self.pending_remaps.add((bank, row))
        return True

    def stats(self) -> dict[str, float]:
        """Mechanism-specific statistics for the metrics layer."""
        return {
            "ref_remapped_rows": float(self.remapped_rows),
            "ref_fallback_subarrays": float(self.fallback_subarrays),
            "ref_achieved_window_ms": self.achieved_refresh_window_ms,
            "ref_remap_failures": float(self.remap_failures),
            "ref_dynamic_remaps": float(self.dynamic_remaps),
        }
