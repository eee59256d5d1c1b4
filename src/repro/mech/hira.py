"""HiRA-style hidden row activation (Yağlıkçı et al., related work).

HiRA observes that refreshing a row *is* an activation, and that a row
activation in one subarray can overlap with operations elsewhere in the
bank group. Instead of the controller's periodic all-bank ``REF`` —
which blackouts every bank for tRFC — the mechanism retires the refresh
obligation as a paced stream of ordinary row activations: one row per
``interval`` cycles, round-robin across banks first (maximizing the
chance the refresh lands in a bank the demand stream is not using), so
demand accesses keep flowing in the other banks while a row refreshes.

The controller's REF loop is disabled by the plugin
(``uses_controller_refresh`` returns ``False``); the replacement policy
is enforced by :class:`HiraRefreshInvariant` on the shadow checker: the
observed ACT stream must make pro-rata progress through the bank-major
refresh schedule.
"""

from __future__ import annotations

from repro.check.invariants import CheckerInvariant
from repro.controller.mechanism import (
    IDLE,
    ActivationPlan,
    Mechanism,
)
from repro.dram.commands import CommandKind, RowId, RowKind
from repro.dram.timing import REF_COMMANDS_PER_WINDOW, TimingParameters
from repro.mech.plugin import BuildContext, MechanismPlugin
from repro.mech.registry import register_mechanism

__all__ = ["HiddenRowActivation", "HiraRefreshInvariant", "hira_interval"]

#: Finalize slack, in schedule intervals: contention can delay refresh
#: activations (urgent plans wait for tRRD/tFAW and bank precharges), so
#: the coverage check tolerates this many intervals of lateness.
COVERAGE_SLACK_INTERVALS = 16


def hira_interval(geometry, timing: TimingParameters) -> int:
    """Cycles between row-refresh activations for full-window coverage.

    Matches the controller's REF pacing: per tREFI a conventional
    controller refreshes ``rows_per_bank / REF_COMMANDS_PER_WINDOW``
    rows in *every* bank, so HiRA must retire that many single-row
    activations per tREFI across the channel.
    """
    rows_per_ref = max(1, geometry.rows_per_bank // REF_COMMANDS_PER_WINDOW)
    acts_per_trefi = rows_per_ref * geometry.banks_per_channel
    return max(1, timing.trefi // acts_per_trefi)


class HiddenRowActivation(Mechanism):
    """Refresh-by-activation, hidden behind demand traffic."""

    name = "hira"
    telemetry_namespace = "hira"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        refresh_enabled: bool = True,
    ) -> None:
        super().__init__(geometry, timing)
        self.refresh_on = refresh_enabled
        self.interval = hira_interval(geometry, timing)
        self.total_rows = geometry.rows_per_bank * geometry.banks_per_channel
        #: Bank-major schedule position: consecutive refreshes target
        #: different banks, so a burst of catch-up activations spreads
        #: over the channel instead of hammering one bank.
        self._cursor = 0
        self._next_due = self.interval
        # The memoized urgent plan for the current cursor position
        # (identity-compared in on_activate).
        self._plan: ActivationPlan | None = None
        self._plan_cursor = -1
        self.refresh_acts = 0
        self.refresh_rounds = 0

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def _cursor_target(self) -> tuple[int, int]:
        """The (bank, bank_row) the cursor currently points at."""
        banks = self.geometry.banks_per_channel
        return self._cursor % banks, self._cursor // banks

    def urgent_plan(self, now: int):
        """The next due refresh activation, or ``None`` when on pace."""
        if not self.refresh_on or now < self._next_due:
            return None
        if self._plan_cursor != self._cursor:
            bank, row = self._cursor_target()
            self._plan = ActivationPlan(
                kind=CommandKind.ACT,
                rows=(RowId.regular(row, self.geometry.rows_per_subarray),),
            )
            self._plan_cursor = self._cursor
        bank = self._cursor % self.geometry.banks_per_channel
        return bank, self._plan

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        """Advance the schedule when our refresh activation was issued."""
        if plan is not self._plan:
            return
        self._cursor += 1
        if self._cursor == self.total_rows:
            self._cursor = 0
            self.refresh_rounds += 1
        self._next_due += self.interval
        self._plan = None
        self._plan_cursor = -1
        self.refresh_acts += 1

    def next_wake(self, now: int) -> int:
        """Wake an idle controller when the next refresh comes due."""
        return self._next_due if self.refresh_on else IDLE

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        return {
            "hira_refresh_acts": float(self.refresh_acts),
            "hira_refresh_rounds": float(self.refresh_rounds),
        }

    def reset_stats(self) -> None:
        self.refresh_acts = 0
        self.refresh_rounds = 0


class HiraRefreshInvariant(CheckerInvariant):
    """Shadow mirror of the HiRA refresh schedule.

    Tracks the expected bank-major cursor independently of the
    mechanism: any observed plain activation of the expected target
    advances it (a demand ACT refreshes the row just as well). Finalize
    requires pro-rata progress — ``end_cycle / interval`` schedule
    advances, minus :data:`COVERAGE_SLACK_INTERVALS` — mirroring the
    base checker's REF coverage rule for conventional refresh.
    """

    name = "hira-refresh"

    def __init__(self, geometry, timing: TimingParameters, enabled: bool):
        self.geometry = geometry
        self.interval = hira_interval(geometry, timing)
        self.total_rows = geometry.rows_per_bank * geometry.banks_per_channel
        self.enabled = enabled
        self._cursor = 0
        self._advanced = 0

    def on_command(self, checker, now, command) -> None:
        if command.kind is not CommandKind.ACT:
            return
        row = command.rows[0]
        if row.kind is not RowKind.REGULAR:
            return
        banks = self.geometry.banks_per_channel
        expected_bank = self._cursor % banks
        expected_row = self._cursor // banks
        if (
            command.bank == expected_bank
            and row.bank_row(self.geometry.rows_per_subarray) == expected_row
        ):
            self._cursor = (self._cursor + 1) % self.total_rows
            self._advanced += 1

    def finalize(self, checker, end_cycle: int) -> None:
        if not self.enabled:
            return
        required = end_cycle // self.interval - COVERAGE_SLACK_INTERVALS
        if self._advanced < required:
            checker.violate(
                end_cycle, -1, "hira-refresh-coverage", "ACT",
                required=required, actual=self._advanced,
                message=(
                    f"only {self._advanced} refresh activations over "
                    f"{end_cycle} cycles; the hidden-row-activation "
                    f"schedule (one row per {self.interval} cycles) "
                    f"cannot cover the refresh window"
                ),
            )


@register_mechanism("hira")
class HiraPlugin(MechanismPlugin):
    """HiRA: refresh retired as hidden row activations, no REF loop."""

    def build(self, ctx: BuildContext):
        return HiddenRowActivation(
            ctx.geometry,
            ctx.timing,
            refresh_enabled=ctx.config.refresh_enabled,
        )

    def geometry_overrides(self, config) -> dict:
        return {"copy_rows_per_subarray": 0}

    def uses_controller_refresh(self, config) -> bool:
        return False

    def checker_invariant(self, config, geometry, timing):
        return HiraRefreshInvariant(
            geometry, timing, enabled=config.refresh_enabled
        )
