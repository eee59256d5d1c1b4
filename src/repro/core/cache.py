"""CROW-cache: in-DRAM caching of recently-activated rows (Section 4.1).

The mechanism maintains, per subarray, duplicates of the most-recently-
activated regular rows in the subarray's copy rows:

* **hit** — the activated row has a duplicate: issue ``ACT-t`` to open both
  rows simultaneously with reduced tRCD (-38% when the pair is fully
  restored, -21% when partially restored), and optionally terminate
  restoration early (tRAS -33%, tWR -13%).
* **miss, free/clean victim** — issue ``ACT-c`` to open the demand row and
  duplicate it into a copy row (tRAS +18%, or -7% with early termination).
* **miss, partially-restored victim** — the victim pair must first be
  fully restored before eviction (a single-row activation of a partially
  restored row would corrupt data): issue a full-tRAS ``ACT-t`` on the
  victim (``is_restore=True``), after which the demand activation replays
  and takes the clean-victim path.
"""

from __future__ import annotations

from functools import lru_cache

from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.errors import ConfigError
from repro.dram.commands import ActTimings, CommandKind, RowId
from repro.dram.timing import CrowTimings, TimingParameters
from repro.core.table import CrowTable, EntryOwner

__all__ = [
    "CrowCache",
    "crow_act_t_timings",
    "crow_act_c_timings",
    "crow_safe_copy_timings",
]


def _twr_pair(crow: CrowTimings, reduced_twr: bool) -> "tuple[int, int | None]":
    if reduced_twr:
        return crow.twr_mra_early, crow.twr_mra_full
    return crow.twr_mra_full, None


@lru_cache(maxsize=None)
def crow_act_t_timings(
    crow: CrowTimings,
    allow_partial_restore: bool,
    reduced_twr: bool,
    fully_restored: bool,
    force_full: bool = False,
) -> ActTimings:
    """``ACT-t`` timing set for a given pair restoration state.

    Pure function of the CROW timing factors and the config knobs.
    Cached: the controller re-plans candidate activations every
    scheduling pass, and all inputs are frozen dataclasses or bools.
    """
    trcd = crow.trcd_act_t_full if fully_restored else crow.trcd_act_t_partial
    if force_full:
        return ActTimings(
            trcd=trcd,
            tras_full=crow.tras_act_t_full,
            tras_early=crow.tras_act_t_full,
            twr=crow.twr_mra_full,
        )
    if allow_partial_restore:
        tras_early = (
            crow.tras_act_t_early
            if fully_restored
            else crow.tras_act_t_partial_early
        )
    else:
        tras_early = crow.tras_act_t_full
    twr, twr_full = _twr_pair(crow, reduced_twr)
    return ActTimings(
        trcd=trcd,
        tras_full=crow.tras_act_t_full,
        tras_early=tras_early,
        twr=twr,
        twr_full=twr_full,
    )


@lru_cache(maxsize=None)
def crow_act_c_timings(
    crow: CrowTimings,
    allow_partial_restore: bool,
    reduced_twr: bool,
    act_c_early_termination: bool,
) -> ActTimings:
    """``ACT-c`` (duplicating activation) timing set (cached, pure)."""
    tras_early = (
        crow.tras_act_c_early
        if allow_partial_restore and act_c_early_termination
        else crow.tras_act_c_full
    )
    twr, twr_full = _twr_pair(crow, reduced_twr)
    return ActTimings(
        trcd=crow.trcd_act_c,
        tras_full=crow.tras_act_c_full,
        tras_early=tras_early,
        twr=twr,
        twr_full=twr_full,
    )


@lru_cache(maxsize=None)
def crow_safe_copy_timings(crow: CrowTimings) -> ActTimings:
    """``ACT-c`` that restores fully (cached, pure).

    A remap copy (CROW-ref, the RowHammer mitigation) is later activated
    alone, so its restoration must never terminate early.
    """
    return ActTimings(
        trcd=crow.trcd_act_c,
        tras_full=crow.tras_act_c_full,
        tras_early=crow.tras_act_c_full,
        twr=crow.twr_mra_full,
    )


class CrowCache(Mechanism):
    """The CROW-cache mechanism (one instance per channel)."""

    name = "crow-cache"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        crow: CrowTimings | None = None,
        table: CrowTable | None = None,
        allow_partial_restore: bool = True,
        reduced_twr: bool = True,
        act_c_early_termination: bool = True,
        evict_partial: str = "bypass",
    ) -> None:
        super().__init__(geometry, timing)
        self.crow = crow if crow is not None else CrowTimings.from_factors(timing)
        self.table = table if table is not None else CrowTable(geometry)
        self.allow_partial_restore = allow_partial_restore
        self.reduced_twr = reduced_twr
        self.act_c_early_termination = act_c_early_termination
        # Eviction policy when every cache way of a set is partially
        # restored (no victim can be evicted safely):
        #   'bypass'  — serve the demand with a plain ACT and skip caching
        #               it this time; the partial entries recover to fully-
        #               restored on a later full-tRAS precharge or refresh.
        #   'restore' — the paper's Section 4.1.4 protocol: spend an extra
        #               full-tRAS ACT-t + PRE to restore the LRU victim,
        #               then cache the demand on the retry. This preserves
        #               MRU insertion exactly but can cascade into extra
        #               activations on low-reuse, conflict-heavy streams.
        # Either way, fully-restored victims are always preferred first.
        if evict_partial not in ("bypass", "restore"):
            raise ConfigError(
                f"evict_partial must be 'bypass' or 'restore', got "
                f"{evict_partial!r}"
            )
        self.evict_partial = evict_partial
        self.hits = 0
        self.misses = 0
        self.uncached = 0
        self.restores = 0
        self.evictions = 0
        self.partial_restores = 0

    # ------------------------------------------------------------------
    # Timing selection
    # ------------------------------------------------------------------
    def act_t_timings(
        self, fully_restored: bool, force_full: bool = False
    ) -> ActTimings:
        """Timings for ``ACT-t`` given the pair's restoration state."""
        return crow_act_t_timings(
            self.crow,
            self.allow_partial_restore,
            self.reduced_twr,
            fully_restored,
            force_full,
        )

    def act_c_timings(self) -> ActTimings:
        """Timings for the ``ACT-c`` duplication command."""
        return crow_act_c_timings(
            self.crow,
            self.allow_partial_restore,
            self.reduced_twr,
            self.act_c_early_termination,
        )

    def timing_variants(self) -> dict[str, ActTimings]:
        return {
            "act-t-full": self.act_t_timings(True),
            "act-t-partial": self.act_t_timings(False),
            "act-t-restore": self.act_t_timings(False, force_full=True),
            "act-c": self.act_c_timings(),
        }

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def plan_activation(self, bank: int, row: int, now: int) -> ActivationPlan:
        """Mechanism hook: choose the activation command for ``row``."""
        rows_per_subarray = self.geometry.rows_per_subarray
        subarray, index = divmod(row, rows_per_subarray)
        # The base-class service_row memo returns exactly
        # RowId.regular(row, rows_per_subarray) — reuse it instead of
        # constructing a fresh RowId on every (re-)planning pass.
        regular = self.service_row(bank, row)
        entry = self.table.lookup(bank, subarray, index)
        if entry is not None and entry.owner is EntryOwner.CACHE:
            return ActivationPlan(
                kind=CommandKind.ACT_T,
                rows=(regular, RowId.copy(subarray, entry.way)),
                timings=self.act_t_timings(entry.is_fully_restored),
            )
        victim = self.table.free_entry(bank, subarray)
        if victim is None:
            # Prefer a fully-restored victim: it can be evicted without an
            # extra restore activation (Section 4.1.4).
            victim = self.table.lru_entry(
                bank, subarray, EntryOwner.CACHE, require_restored=True
            )
        if victim is None and self.evict_partial == "restore":
            lru = self.table.lru_entry(bank, subarray, EntryOwner.CACHE)
            if lru is not None:
                # Safe-eviction protocol: fully restore the pair first.
                victim_regular = RowId.regular(
                    lru.subarray * rows_per_subarray + lru.regular_row,
                    rows_per_subarray,
                )
                return ActivationPlan(
                    kind=CommandKind.ACT_T,
                    rows=(victim_regular, RowId.copy(lru.subarray, lru.way)),
                    timings=self.act_t_timings(
                        fully_restored=False, force_full=True
                    ),
                    is_restore=True,
                )
        if victim is None:
            # All ways pinned/partial: serve conventionally, skip caching.
            return ActivationPlan(kind=CommandKind.ACT, rows=(regular,))
        return ActivationPlan(
            kind=CommandKind.ACT_C,
            rows=(regular, RowId.copy(subarray, victim.way)),
            timings=self.act_c_timings(),
        )

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        """Mechanism hook: an activation command was issued."""
        if plan.kind is CommandKind.ACT_T:
            if plan.is_restore:
                self.restores += 1
                return
            regular, _copy = plan.rows
            entry = self.table.lookup(bank, regular.subarray, regular.index)
            if entry is not None:
                entry.last_use = now
            self.hits += 1
        elif plan.kind is CommandKind.ACT_C:
            regular, copy = plan.rows
            entry = self.table.entry_for_copy_row(bank, copy.subarray, copy.index)
            if entry.allocated and entry.owner is EntryOwner.CACHE:
                self.evictions += 1
            self.table.allocate(
                bank, copy.subarray, regular.index, EntryOwner.CACHE, now, entry
            )
            self.misses += 1
        else:
            self.uncached += 1

    def on_precharge(self, bank: int, result, now: int) -> None:
        """Mechanism hook: a precharge closed ``result.rows``."""
        if len(result.rows) != 2:
            return
        regular, copy = result.rows
        entry = self.table.entry_for_copy_row(bank, copy.subarray, copy.index)
        if (
            entry.allocated
            and entry.owner is EntryOwner.CACHE
            and entry.subarray == copy.subarray
            and entry.regular_row == regular.index
        ):
            entry.is_fully_restored = result.fully_restored
            if not result.fully_restored:
                self.partial_restores += 1

    def on_refresh(self, refreshed_rows: range, now: int) -> None:
        """Refresh fully restores the covered rows (and, with them, the
        pairs tracked in the CROW-table — see Section 4.1.4)."""
        rows_per_subarray = self.geometry.rows_per_subarray
        for row in refreshed_rows:
            subarray, index = divmod(row % self.geometry.rows_per_bank,
                                     rows_per_subarray)
            for bank in range(self.geometry.banks_per_channel):
                entry = self.table.lookup(bank, subarray, index)
                if entry is not None and entry.owner is EntryOwner.CACHE:
                    entry.is_fully_restored = True

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def demand_activations(self) -> int:
        """Activations that served demand requests."""
        return self.hits + self.misses + self.uncached

    def hit_rate(self) -> float:
        """The paper's CROW-table hit rate (Figure 8, bottom)."""
        total = self.demand_activations
        return self.hits / total if total else 0.0

    def restore_fraction(self) -> float:
        """Eviction-restore activations over all activations (Sec 8.1.1)."""
        total = self.demand_activations + self.restores
        return self.restores / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero statistics at the warm-up boundary."""
        self.hits = 0
        self.misses = 0
        self.uncached = 0
        self.restores = 0
        self.evictions = 0
        self.partial_restores = 0

    def stats(self) -> dict[str, float]:
        """Mechanism-specific statistics for the metrics layer."""
        return {
            "crow_hits": self.hits,
            "crow_misses": self.misses,
            "crow_uncached": self.uncached,
            "crow_restores": self.restores,
            "crow_evictions": self.evictions,
            "crow_partial_restores": self.partial_restores,
            "crow_hit_rate": self.hit_rate(),
            "crow_restore_fraction": self.restore_fraction(),
        }
