"""Tiered-Latency DRAM (TL-DRAM) in-DRAM caching baseline [58].

TL-DRAM splits each subarray's bitlines with isolation transistors into a
short *near* segment (very low tRCD/tRAS — the paper's circuit model finds
-73% tRCD and -80% tRAS for an 8-row near segment) and a long *far*
segment whose accesses pay a small latency penalty for crossing the
isolation transistor. The near segment is managed exactly like
CROW-cache's copy rows: an MRU cache of recently-activated far rows,
filled with an in-DRAM copy operation (we reuse CROW's ``ACT-c``, as the
paper does — Section 8.1.4).

The decisive difference from CROW is cost: the per-bitline isolation
transistors cost 6.9% of chip area versus CROW's 0.48% (Figure 11b).
"""

from __future__ import annotations

from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.dram.commands import ActTimings, CommandKind, RowId, RowKind
from repro.dram.timing import TimingParameters, scale_cycles
from repro.core.table import CrowTable, EntryOwner

__all__ = ["TlDram"]

#: Timing multipliers for near/far segment accesses.
NEAR_TRCD = 0.27     # -73% (8-row near segment, Section 8.1.4)
NEAR_TRAS = 0.20     # -80%
FAR_TRCD = 1.04      # isolation transistor penalty
FAR_TRAS = 1.09
COPY_TRAS = 1.18     # far->near in-DRAM copy (ACT-c-like)


def _act(timing: TimingParameters, trcd: float, tras: float) -> ActTimings:
    tras_cycles = scale_cycles(timing.tras, tras)
    return ActTimings(
        trcd=scale_cycles(timing.trcd, trcd),
        tras_full=tras_cycles,
        tras_early=tras_cycles,
        twr=timing.twr,
    )


class TlDram(Mechanism):
    """TL-DRAM near-segment MRU cache (one instance per channel)."""

    name = "tl-dram"

    def __init__(self, geometry, timing: TimingParameters) -> None:
        super().__init__(geometry, timing)
        self.table = CrowTable(geometry)
        self._near_timings = _act(timing, NEAR_TRCD, NEAR_TRAS)
        self._far_timings = _act(timing, FAR_TRCD, FAR_TRAS)
        self._copy_timings = _act(timing, FAR_TRCD, COPY_TRAS)
        self.hits = 0
        self.misses = 0

    def service_row(self, bank: int, row: int) -> RowId:
        """Physical row that serves requests for ``row`` (remap-aware)."""
        subarray, index = divmod(row, self.geometry.rows_per_subarray)
        entry = self.table.lookup(bank, subarray, index)
        if entry is not None:
            return RowId.copy(subarray, entry.way)
        return RowId.regular(row, self.geometry.rows_per_subarray)

    def plan_activation(self, bank: int, row: int, now: int) -> ActivationPlan:
        """Mechanism hook: choose the activation command for ``row``."""
        subarray, index = divmod(row, self.geometry.rows_per_subarray)
        regular = RowId.regular(row, self.geometry.rows_per_subarray)
        entry = self.table.lookup(bank, subarray, index)
        if entry is not None:
            # Near-segment hit: activate the near row alone, very fast.
            return ActivationPlan(
                kind=CommandKind.ACT,
                rows=(RowId.copy(subarray, entry.way),),
                timings=self._near_timings,
            )
        victim = self.table.free_entry(bank, subarray)
        if victim is None:
            victim = self.table.lru_entry(bank, subarray, EntryOwner.CACHE)
        if victim is None:
            return ActivationPlan(
                kind=CommandKind.ACT, rows=(regular,), timings=self._far_timings
            )
        return ActivationPlan(
            kind=CommandKind.ACT_C,
            rows=(regular, RowId.copy(subarray, victim.way)),
            timings=self._copy_timings,
        )

    def timing_variants(self) -> dict[str, ActTimings]:
        return {
            "act-near": self._near_timings,
            "act-far": self._far_timings,
            "act-c-copy": self._copy_timings,
        }

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        """Mechanism hook: an activation command was issued."""
        if plan.kind is CommandKind.ACT_C:
            regular, copy = plan.rows
            entry = self.table.entry_for_copy_row(bank, copy.subarray, copy.index)
            self.table.allocate(
                bank, copy.subarray, regular.index, EntryOwner.CACHE, now, entry
            )
            entry.is_fully_restored = True
            self.misses += 1
            return
        if plan.rows[0].kind is RowKind.COPY:
            entry = self.table.entry_for_copy_row(
                bank, plan.rows[0].subarray, plan.rows[0].index
            )
            entry.last_use = now
            self.hits += 1
        else:
            self.misses += 1

    def stats(self) -> dict[str, float]:
        """Mechanism-specific statistics for the metrics layer.

        ``tldram_hit_rate`` is the fraction of demand activations
        served as table hits (0.0 before any activation).
        """
        total = self.hits + self.misses
        return {
            "tldram_hits": self.hits,
            "tldram_misses": self.misses,
            "tldram_hit_rate": self.hits / total if total else 0.0,
        }

    def reset_stats(self) -> None:
        """Zero statistics at the warm-up boundary."""
        self.hits = 0
        self.misses = 0
