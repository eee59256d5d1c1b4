"""CROW-cache and CROW-ref operating together (Section 8.3).

Both mechanisms share one copy-row pool and one CROW-table: CROW-ref pins
the copy rows it needs for weak-row remapping (and retires weak copy rows),
and CROW-cache uses whatever remains. A single extra Special bit — here
the structural :class:`~repro.core.table.EntryOwner` tag — distinguishes
the two uses of an entry.
"""

from __future__ import annotations

from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.dram.commands import ActTimings, CommandKind, RowId, RowKind
from repro.dram.retention import RetentionModel
from repro.dram.timing import CrowTimings, TimingParameters
from repro.core.cache import CrowCache, crow_safe_copy_timings
from repro.core.ref import CrowRef
from repro.core.table import CrowTable

__all__ = ["CrowCacheRef"]


class CrowCacheRef(Mechanism):
    """Combined CROW-cache + CROW-ref mechanism (one per channel)."""

    name = "crow-cache+ref"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        retention: RetentionModel,
        crow: CrowTimings | None = None,
        channel: int = 0,
        base_window_ms: float = 64.0,
        allow_partial_restore: bool = True,
        reduced_twr: bool = True,
        act_c_early_termination: bool = True,
        evict_partial: str = "bypass",
    ) -> None:
        super().__init__(geometry, timing)
        self.table = CrowTable(geometry)
        # CROW-ref profiles and pins its entries first; CROW-cache then
        # sees only the remaining free ways.
        self.ref = CrowRef(
            geometry,
            timing,
            retention,
            table=self.table,
            crow=crow,
            channel=channel,
            base_window_ms=base_window_ms,
        )
        self.cache = CrowCache(
            geometry,
            timing,
            crow=crow,
            table=self.table,
            allow_partial_restore=allow_partial_restore,
            reduced_twr=reduced_twr,
            act_c_early_termination=act_c_early_termination,
            evict_partial=evict_partial,
        )

    @property
    def achieved_refresh_window_ms(self) -> float:
        """The refresh window this channel safely runs at."""
        return self.ref.achieved_refresh_window_ms

    # ------------------------------------------------------------------
    # Mechanism interface — dispatch between the two components
    # ------------------------------------------------------------------
    def service_row(self, bank: int, row: int) -> RowId:
        """Physical row that serves requests for ``row`` (remap-aware)."""
        return self.ref.service_row(bank, row)

    def plan_activation(self, bank: int, row: int, now: int) -> ActivationPlan:
        """Mechanism hook: choose the activation command for ``row``.

        A remapped row is CROW-ref's; so is a row with a pending dynamic
        (VRT) remap while a free copy row can take it. Everything else
        is CROW-cache's.
        """
        ref = self.ref
        if (bank, row) in ref.remap:
            return ref.plan_activation(bank, row, now)
        if (bank, row) in ref.pending_remaps:
            plan = ref.plan_activation(bank, row, now)
            if plan.kind is CommandKind.ACT_C:
                return plan
        return self.cache.plan_activation(bank, row, now)

    def timing_variants(self) -> dict[str, ActTimings]:
        return {**self.cache.timing_variants(), **self.ref.timing_variants()}

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        """Mechanism hook: an activation command was issued.

        A plain ACT whose target is a copy row is a CROW-ref redirect,
        and an ACT-c with CROW-ref's remap timings its dynamic remap;
        everything else belongs to CROW-cache.
        """
        kind = plan.kind
        if (
            kind is CommandKind.ACT and plan.rows[0].kind is RowKind.COPY
        ) or (
            kind is CommandKind.ACT_C
            and plan.timings is crow_safe_copy_timings(self.ref.crow)
        ):
            self.ref.on_activate(bank, plan, now)
            return
        self.cache.on_activate(bank, plan, now)

    def on_precharge(self, bank: int, result, now: int) -> None:
        """Mechanism hook: a precharge closed ``result.rows``."""
        self.cache.on_precharge(bank, result, now)

    def on_refresh(self, refreshed_rows: range, now: int) -> None:
        """Mechanism hook: a REF covered ``refreshed_rows``."""
        self.cache.on_refresh(refreshed_rows, now)

    def hit_rate(self) -> float:
        """CROW-table hit rate of the cache component."""
        return self.cache.hit_rate()

    def stats(self) -> dict[str, float]:
        """Mechanism-specific statistics for the metrics layer."""
        merged = self.cache.stats()
        merged.update(self.ref.stats())
        return merged

    def reset_stats(self) -> None:
        """Zero statistics at the warm-up boundary."""
        self.cache.reset_stats()
