"""Idealized bounds used by the paper's Figures 8, 9 and 14.

*Ideal CROW-cache* assumes a 100% CROW-table hit rate: every activation is
an ``ACT-t`` on a fully-restored pair, paying the MRA energy overhead but
never the copy/eviction costs. Combined with disabled refresh it forms the
"ideal" bound of Figure 14.
"""

from __future__ import annotations

from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.core.cache import crow_act_t_timings
from repro.dram.commands import ActTimings, CommandKind, RowId
from repro.dram.timing import CrowTimings, TimingParameters

__all__ = ["IdealCrowCache"]


class IdealCrowCache(Mechanism):
    """Hypothetical CROW-cache with a 100% hit rate (timing-only model)."""

    name = "ideal-crow-cache"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        crow: CrowTimings | None = None,
        allow_partial_restore: bool = True,
    ) -> None:
        super().__init__(geometry, timing)
        crow = crow if crow is not None else CrowTimings.from_factors(timing)
        # A fully-restored pair; reduced tWR rides on partial restoration.
        self._timings = crow_act_t_timings(
            crow, allow_partial_restore, allow_partial_restore, True
        )
        self.activations = 0

    def plan_activation(self, bank: int, row: int, now: int) -> ActivationPlan:
        """Mechanism hook: choose the activation command for ``row``."""
        regular = RowId.regular(row, self.geometry.rows_per_subarray)
        return ActivationPlan(
            kind=CommandKind.ACT_T,
            rows=(regular, RowId.copy(regular.subarray, 0)),
            timings=self._timings,
        )

    def timing_variants(self) -> dict[str, ActTimings]:
        return {"act-t-ideal": self._timings}

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        """Mechanism hook: an activation command was issued."""
        self.activations += 1

    def stats(self) -> dict[str, float]:
        """Mechanism-specific statistics for the metrics layer."""
        return {"ideal_activations": float(self.activations)}

    def reset_stats(self) -> None:
        """Zero statistics at the warm-up boundary."""
        self.activations = 0
