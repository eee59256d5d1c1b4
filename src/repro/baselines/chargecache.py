"""ChargeCache baseline [26] (paper Section 9, related-work ablation).

ChargeCache observes that a row precharged *recently* still holds
near-full charge, so re-activating it within a short window (~1 ms) can
use reduced tRCD/tRAS. The controller keeps a small table of
recently-precharged row addresses; entries expire after the caching
window because the cells keep leaking.

Contrast with CROW-cache (Section 9): ChargeCache's benefit evaporates
1 ms after the precharge, while a CROW copy row keeps its row fast until
evicted from the CROW-table.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.dram.commands import ActTimings, CommandKind, RowId, RowKind
from repro.dram.timing import TimingParameters, scale_cycles
from repro.errors import ConfigError
from repro.units import ms_to_cycles

__all__ = ["ChargeCache"]

#: Latency scaling for a highly-charged row: tRCD -21%, tRAS -5% [26].
TRCD_FACTOR = 0.79
TRAS_FACTOR = 0.95


class ChargeCache(Mechanism):
    """Recently-precharged (highly-charged) row tracking."""

    name = "chargecache"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        entries: int = 1024,
        window_ms: float = 1.0,
    ) -> None:
        super().__init__(geometry, timing)
        if entries < 1:
            raise ConfigError("entries must be >= 1")
        self.capacity = entries
        self.window_cycles = ms_to_cycles(window_ms, timing.clock_mhz)
        tras = scale_cycles(timing.tras, TRAS_FACTOR)
        self._fast_timings = ActTimings(
            trcd=scale_cycles(timing.trcd, TRCD_FACTOR),
            tras_full=tras,
            tras_early=tras,
            twr=timing.twr,
        )
        # (bank, row) -> precharge cycle; ordered for LRU eviction.
        self._table: OrderedDict[tuple[int, int], int] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def plan_activation(self, bank: int, row: int, now: int) -> ActivationPlan:
        """Mechanism hook: choose the activation command for ``row``."""
        regular = RowId.regular(row, self.geometry.rows_per_subarray)
        stamp = self._table.get((bank, row))
        if stamp is not None and now - stamp <= self.window_cycles:
            return ActivationPlan(
                kind=CommandKind.ACT, rows=(regular,), timings=self._fast_timings
            )
        return ActivationPlan(kind=CommandKind.ACT, rows=(regular,))

    def timing_variants(self) -> dict[str, ActTimings]:
        return {"act-charged": self._fast_timings}

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        """Mechanism hook: an activation command was issued."""
        if plan.timings is self._fast_timings:
            self.hits += 1
        else:
            self.misses += 1

    def on_precharge(self, bank: int, result, now: int) -> None:
        """Mechanism hook: a precharge closed ``result.rows``."""
        for row in result.rows:
            if row.kind is not RowKind.REGULAR:   # copy rows are not tracked
                continue
            key = (bank, row.subarray * self.geometry.rows_per_subarray + row.index)
            self._table[key] = now
            self._table.move_to_end(key)
            while len(self._table) > self.capacity:
                self._table.popitem(last=False)

    def hit_rate(self) -> float:
        """Fraction of demand activations served as table hits."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Mechanism-specific statistics for the metrics layer."""
        return {
            "chargecache_hits": self.hits,
            "chargecache_misses": self.misses,
            "chargecache_hit_rate": self.hit_rate(),
        }

    def reset_stats(self) -> None:
        """Zero statistics at the warm-up boundary."""
        self.hits = 0
        self.misses = 0
