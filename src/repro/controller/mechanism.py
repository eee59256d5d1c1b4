"""Mechanism hook: how a row activation is performed.

The controller consults its :class:`Mechanism` before activating a row.
The mechanism answers with an :class:`ActivationPlan` that names the DRAM
command to issue (``ACT``, ``ACT-t``, ``ACT-c``, or a redirected plain
``ACT`` to a copy row), the rows it targets, and the activation timings in
effect. This is the seam through which CROW-cache, CROW-ref, the RowHammer
mitigation, the combined mechanism and the TL-DRAM/SALP/ChargeCache
baselines all plug into one controller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.bank import PrechargeResult
from repro.dram.commands import ActTimings, CommandKind, RowId
from repro.dram.timing import TimingParameters

__all__ = ["IDLE", "ActivationPlan", "Mechanism", "NoMechanism"]

#: Sentinel wake time meaning "no mechanism-scheduled work pending".
#: Mirrors the controller's idle sentinel so wake times min() cleanly.
IDLE = 1 << 62


@dataclass(frozen=True)
class ActivationPlan:
    """One activation decision.

    Attributes
    ----------
    kind:
        ``ACT``, ``ACT_T`` or ``ACT_C``.
    rows:
        Activation target(s); must satisfy the :class:`Command` shape for
        ``kind``.
    timings:
        Activation timing overrides (``None`` uses the baseline set).
    is_restore:
        True when this activation does not serve the demand request but
        fully restores a partially-restored row pair so that it can be
        safely evicted from the CROW-table (paper Section 4.1.4). The
        controller issues it, precharges after the full tRAS, and then
        re-plans the demand activation.
    """

    kind: CommandKind
    rows: tuple[RowId, ...]
    timings: ActTimings | None = None
    is_restore: bool = False


class Mechanism:
    """Base mechanism: conventional DRAM behaviour.

    Subclasses override a subset of the hooks. All hooks receive the bank
    index and the *bank-level regular row number* the demand request
    targets, plus the current cycle.
    """

    #: Human-readable name used in experiment tables.
    name = "baseline"

    #: Telemetry stat-group suffix (exported as ``mech.<namespace>``)
    #: for mechanisms whose :meth:`stats` should appear in telemetry
    #: snapshots. ``None`` keeps :meth:`stats` out of telemetry — the
    #: default, because the committed digest oracle predates per-
    #: mechanism namespaces and must stay byte-identical.
    telemetry_namespace: str | None = None

    def __init__(self, geometry, timing: TimingParameters) -> None:
        self.geometry = geometry
        self.timing = timing
        # row -> RowId memo for the identity mapping (geometry is fixed
        # per instance). The controller resolves each queued request's
        # service row once, and every activation plan looks it up again;
        # subclasses with *dynamic* redirection (CROW-ref and friends)
        # override service_row and skip this memo.
        self._service_rows: dict[int, RowId] = {}

    # ------------------------------------------------------------------
    # Activation planning
    # ------------------------------------------------------------------
    def service_row(self, bank: int, row: int) -> RowId:
        """The physical row that serves requests for regular row ``row``.

        Row-hit detection uses this: a request hits if the serving row is
        among the bank's open rows. CROW-ref redirects weak rows to their
        copy rows here.

        Must be cheap and pure. The controller keeps the answer for a
        queued request's lifetime while this base method is in effect;
        for a subclass that overrides it (a redirection that can change
        at run time) the controller asks again on every scheduling pass,
        once for each queued request the pass scans.
        """
        rid = self._service_rows.get(row)
        if rid is None:
            rid = RowId.regular(row, self.geometry.rows_per_subarray)
            self._service_rows[row] = rid
        return rid

    def plan_activation(self, bank: int, row: int, now: int) -> ActivationPlan:
        """Decide how to activate regular row ``row`` of ``bank``.

        The controller calls this only for the activation it is about to
        issue at ``now``. It must be side-effect free, and ``rows[0]``
        must lie in the subarray of :meth:`service_row` — the slot whose
        readiness the controller probed.
        """
        return ActivationPlan(
            kind=CommandKind.ACT,
            rows=(self.service_row(bank, row),),
        )

    def timing_variants(self) -> dict[str, ActTimings]:
        """Every activation-timing override this mechanism issues, by name.

        The values are the very :class:`ActTimings` objects its plans
        carry, so every non-``None`` ``timings`` on the command stream is
        one of them. The base mechanism only issues base-timing
        activations and declares none.
        """
        return {}

    # ------------------------------------------------------------------
    # Event notifications
    # ------------------------------------------------------------------
    def urgent_plan(self, now: int) -> tuple[int, ActivationPlan] | None:
        """A mechanism-initiated activation, independent of any request.

        Used by the RowHammer mitigation to copy victim rows as soon as an
        attack is detected. Returns ``(bank, plan)`` or ``None``. The
        controller issues urgent plans ahead of demand requests (but after
        refresh) and re-polls until the mechanism returns ``None``.
        """
        return None

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        """Called after an activation command is issued."""

    def on_precharge(self, bank: int, result: PrechargeResult, now: int) -> None:
        """Called after a precharge; ``result`` reports restoration state."""

    def on_refresh(self, refreshed_rows: range, now: int) -> None:
        """Called after a REF command with the regular-row range covered."""

    def next_wake(self, now: int) -> int:
        """Earliest cycle mechanism-initiated work next comes due.

        An otherwise-idle controller sleeps until its next refresh; a
        mechanism that paces its own work (HiRA's hidden refresh
        activations) overrides this so the controller wakes for it.
        Return :data:`IDLE` when nothing is scheduled. The controller
        detects the override at construction time, so the base hook
        costs nothing per tick.
        """
        return IDLE

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Mechanism-specific statistics for the metrics layer."""
        return {}

    def reset_stats(self) -> None:
        """Zero statistics at the warm-up boundary (state is kept)."""


class NoMechanism(Mechanism):
    """Explicit alias for conventional DRAM (the paper's baseline)."""

    name = "conventional"
