"""RowHammer mitigation on the CROW substrate (Section 4.3).

A counter-based detector (in the spirit of [16, 45, 62, 103]) tracks
activations per regular row within one refresh window. When a row's count
crosses the hammer threshold, the mechanism asks the controller (through
the ``urgent_plan`` hook) to issue ``ACT-c`` commands that copy the two
physically-adjacent victim rows into copy rows of their subarray. From
then on the victims are served from their copies, so further disturbance
of the original victim cells cannot corrupt live data.
"""

from __future__ import annotations

from collections import deque

from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.dram.commands import ActTimings, CommandKind, RowId, RowKind
from repro.dram.timing import CrowTimings, TimingParameters
from repro.core.cache import crow_safe_copy_timings
from repro.core.table import CrowTable, EntryOwner

__all__ = ["RowHammerMitigation"]


class RowHammerMitigation(Mechanism):
    """Victim-row remapping RowHammer defense (one instance per channel)."""

    name = "crow-hammer"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        crow: CrowTimings | None = None,
        hammer_threshold: int = 2000,
    ) -> None:
        super().__init__(geometry, timing)
        self.table = CrowTable(geometry)
        self.crow = crow if crow is not None else CrowTimings.from_factors(timing)
        self.hammer_threshold = hammer_threshold
        self.counters: dict[tuple[int, int], int] = {}
        self.remap: dict[tuple[int, int], RowId] = {}
        self._urgent: deque[tuple[int, int]] = deque()   # (bank, victim row)
        self.protected_victims = 0
        self.protection_failures = 0

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
        return ActivationPlan(
            kind=CommandKind.ACT, rows=(self.service_row(bank, row),)
        )

    def urgent_plan(self, now: int):
        """Copy the next queued victim row into a copy row."""
        while self._urgent:
            bank, victim = self._urgent[0]
            if (bank, victim) in self.remap:
                self._urgent.popleft()
                continue
            subarray, index = divmod(victim, self.geometry.rows_per_subarray)
            entry = self.table.free_entry(bank, subarray)
            if entry is None:
                self._urgent.popleft()
                self.protection_failures += 1
                continue
            regular = RowId.regular(victim, self.geometry.rows_per_subarray)
            return bank, ActivationPlan(
                kind=CommandKind.ACT_C,
                rows=(regular, RowId.copy(subarray, entry.way)),
                timings=crow_safe_copy_timings(self.crow),
            )
        return None

    def timing_variants(self) -> dict[str, ActTimings]:
        return {"act-c-remap": crow_safe_copy_timings(self.crow)}

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        """Mechanism hook: an activation command was issued."""
        row = plan.rows[0]
        if plan.kind is CommandKind.ACT_C:
            # Completion of a victim copy requested by urgent_plan.
            regular, copy = plan.rows
            bank_row = regular.bank_row(self.geometry.rows_per_subarray)
            if self._urgent and self._urgent[0] == (bank, bank_row):
                self._urgent.popleft()
            entry = self.table.entry_for_copy_row(bank, copy.subarray, copy.index)
            self.table.allocate(
                bank, copy.subarray, regular.index, EntryOwner.HAMMER, now, entry
            )
            self.remap[(bank, bank_row)] = copy
            self.protected_victims += 1
            return
        if row.kind is not RowKind.REGULAR:
            return
        bank_row = row.bank_row(self.geometry.rows_per_subarray)
        key = (bank, bank_row)
        count = self.counters.get(key, 0) + 1
        self.counters[key] = count
        if count == self.hammer_threshold:
            self._queue_victims(bank, bank_row)

    def _queue_victims(self, bank: int, aggressor: int) -> None:
        for victim in (aggressor - 1, aggressor + 1):
            if not 0 <= victim < self.geometry.rows_per_bank:
                continue
            if (bank, victim) in self.remap:
                continue
            if (bank, victim) not in self._urgent:
                self._urgent.append((bank, victim))

    def on_refresh(self, refreshed_rows: range, now: int) -> None:
        """Refresh restores victim cells; counters for the covered rows
        restart (the detector's window is one refresh pass)."""
        rows = set(
            r % self.geometry.rows_per_bank for r in refreshed_rows
        )
        for key in [k for k in self.counters if k[1] in rows]:
            del self.counters[key]

    def stats(self) -> dict[str, float]:
        """Mechanism-specific statistics for the metrics layer."""
        return {
            "hammer_protected_victims": float(self.protected_victims),
            "hammer_protection_failures": float(self.protection_failures),
            "hammer_remapped_rows": float(len(self.remap)),
        }
