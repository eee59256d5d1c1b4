"""CnC-PRAC: per-row activation counting with coalesced mitigation.

Models a PRAC-style in-DRAM defense (Lin et al., related work): every
row carries an activation counter; when a row's count reaches the alert
threshold, its physically-adjacent neighbours are queued for a
charge-restoring mitigation activation, and the aggressor's counter
resets. Queued mitigations are *coalesced*: a victim already pending is
not enqueued again, so a burst of alerts from neighbouring aggressors
collapses into one restoration pass. The controller serves mitigations
through the ``urgent_plan`` hook, ahead of demand traffic.

The policy is deliberately a pure function of the observed command
stream — any plain activation of a pending victim (mitigation *or*
demand: both restore the victim's charge) retires the obligation, and
REF coverage clears the counters of the refreshed rows — so
:class:`PracInvariant` can mirror it exactly on the shadow checker and
enforce the mitigation deadline independently of the mechanism's code.
"""

from __future__ import annotations

from repro.check.invariants import CheckerInvariant
from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.dram.commands import CommandKind, RowId, RowKind
from repro.dram.timing import REF_COMMANDS_PER_WINDOW, TimingParameters
from repro.mech.plugin import BuildContext, MechanismPlugin
from repro.mech.registry import register_mechanism

__all__ = ["CncPrac", "PracInvariant"]

#: A pending mitigation must be observed within this many tREFI of the
#: alert; urgent plans preempt demand, so real lateness is tens of
#: cycles — the slack absorbs refresh blackouts and queue contention.
MITIGATION_DEADLINE_TREFI = 2

#: Per-row activation count that raises an alert.
PRAC_THRESHOLD = 512

#: Neighbours per side an alert queues for mitigation.
PRAC_BLAST_RADIUS = 1


class CncPrac(Mechanism):
    """Per-row activation counters + coalesced neighbour mitigation."""

    name = "cnc-prac"
    telemetry_namespace = "cnc_prac"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        threshold: int = PRAC_THRESHOLD,
        blast_radius: int = PRAC_BLAST_RADIUS,
    ) -> None:
        super().__init__(geometry, timing)
        self.threshold = threshold
        self.blast_radius = blast_radius
        #: (bank, bank_row) -> activations since last reset. State, not
        #: a statistic: survives the warm-up boundary and snapshots.
        self.counters: dict[tuple[int, int], int] = {}
        #: Pending victim mitigations in alert order (dict = FIFO + set).
        self.pending: dict[tuple[int, int], bool] = {}
        self._rows_per_ref = max(
            1, geometry.rows_per_bank // REF_COMMANDS_PER_WINDOW
        )
        self.alerts = 0
        self.mitigations = 0
        self.coalesced = 0
        self.ref_absorbed = 0

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def urgent_plan(self, now: int):
        """Restore the oldest pending victim with a full activation."""
        if not self.pending:
            return None
        bank, victim = next(iter(self.pending))
        return bank, ActivationPlan(
            kind=CommandKind.ACT,
            rows=(RowId.regular(victim, self.geometry.rows_per_subarray),),
        )

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        row = plan.rows[0]
        if row.kind is not RowKind.REGULAR:
            return
        bank_row = row.bank_row(self.geometry.rows_per_subarray)
        key = (bank, bank_row)
        if self.pending.pop(key, None) is not None:
            # The activation restored a pending victim (whether issued
            # by urgent_plan or by a demand access — both recharge it).
            self.mitigations += 1
            self.counters[key] = 0
            return
        count = self.counters.get(key, 0) + 1
        if count >= self.threshold:
            self.counters[key] = 0
            self.alerts += 1
            self._queue_victims(bank, bank_row)
        else:
            self.counters[key] = count

    def _queue_victims(self, bank: int, aggressor: int) -> None:
        for offset in range(1, self.blast_radius + 1):
            for victim in (aggressor - offset, aggressor + offset):
                if not 0 <= victim < self.geometry.rows_per_bank:
                    continue
                if (bank, victim) in self.pending:
                    self.coalesced += 1
                    continue
                self.pending[(bank, victim)] = True

    def on_refresh(self, refreshed_rows: range, now: int) -> None:
        """REF restores the covered rows: reset counters, absorb pending."""
        rows = {r % self.geometry.rows_per_bank for r in refreshed_rows}
        for key in [k for k in self.counters if k[1] in rows]:
            del self.counters[key]
        for key in [k for k in self.pending if k[1] in rows]:
            del self.pending[key]
            self.ref_absorbed += 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        return {
            "prac_alerts": float(self.alerts),
            "prac_mitigations": float(self.mitigations),
            "prac_coalesced": float(self.coalesced),
            "prac_ref_absorbed": float(self.ref_absorbed),
            "prac_pending": float(len(self.pending)),
        }

    def reset_stats(self) -> None:
        self.alerts = 0
        self.mitigations = 0
        self.coalesced = 0
        self.ref_absorbed = 0


class PracInvariant(CheckerInvariant):
    """Shadow mirror of the CnC-PRAC alert/mitigation contract.

    Re-derives the per-row counters and the pending-victim set from the
    observed stream with the same pure rules the mechanism uses, stamps
    each alert with a deadline, and flags any victim whose restoring
    activation was not observed in time.
    """

    name = "cnc-prac"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        threshold: int,
        blast_radius: int,
    ) -> None:
        self.geometry = geometry
        self.threshold = threshold
        self.blast_radius = blast_radius
        self.deadline_cycles = MITIGATION_DEADLINE_TREFI * timing.trefi
        self._counters: dict[tuple[int, int], int] = {}
        #: (bank, victim) -> deadline cycle, in alert order (so the
        #: first entry always carries the earliest deadline).
        self._pending: dict[tuple[int, int], int] = {}
        self._refresh_cursor = 0
        self._rows_per_ref = max(
            1, geometry.rows_per_bank // REF_COMMANDS_PER_WINDOW
        )

    def _check_deadline(self, checker, now: int) -> None:
        if not self._pending:
            return
        key, deadline = next(iter(self._pending.items()))
        if now > deadline:
            del self._pending[key]
            checker.violate(
                now, key[0], "cnc-prac-mitigation-deadline", "ACT",
                required=deadline, actual=now,
                message=(
                    f"victim row {key[1]} of bank {key[0]} was alerted "
                    f"but not restored within {self.deadline_cycles} "
                    f"cycles"
                ),
            )

    def on_command(self, checker, now, command) -> None:
        self._check_deadline(checker, now)
        kind = command.kind
        if kind is CommandKind.REF:
            start = self._refresh_cursor
            stop = start + self._rows_per_ref
            self._refresh_cursor = stop % self.geometry.rows_per_bank
            rows = {
                r % self.geometry.rows_per_bank for r in range(start, stop)
            }
            for key in [k for k in self._counters if k[1] in rows]:
                del self._counters[key]
            for key in [k for k in self._pending if k[1] in rows]:
                del self._pending[key]
            return
        if kind is not CommandKind.ACT:
            return
        row = command.rows[0]
        if row.kind is not RowKind.REGULAR:
            return
        bank_row = row.bank_row(self.geometry.rows_per_subarray)
        key = (command.bank, bank_row)
        if self._pending.pop(key, None) is not None:
            self._counters[key] = 0
            return
        count = self._counters.get(key, 0) + 1
        if count >= self.threshold:
            self._counters[key] = 0
            deadline = now + self.deadline_cycles
            for offset in range(1, self.blast_radius + 1):
                for victim in (bank_row - offset, bank_row + offset):
                    if not 0 <= victim < self.geometry.rows_per_bank:
                        continue
                    vkey = (command.bank, victim)
                    if vkey not in self._pending:
                        self._pending[vkey] = deadline
        else:
            self._counters[key] = count

    def finalize(self, checker, end_cycle: int) -> None:
        for key, deadline in list(self._pending.items()):
            if end_cycle > deadline:
                del self._pending[key]
                checker.violate(
                    end_cycle, key[0], "cnc-prac-mitigation-deadline",
                    "ACT", required=deadline, actual=end_cycle,
                    message=(
                        f"victim row {key[1]} of bank {key[0]} was still "
                        f"unmitigated {end_cycle - deadline} cycles past "
                        f"its deadline at end of run"
                    ),
                )


@register_mechanism("cnc-prac")
class CncPracPlugin(MechanismPlugin):
    """CnC-PRAC: counter-based RowHammer defense, coalesced mitigation."""

    def build(self, ctx: BuildContext):
        return CncPrac(ctx.geometry, ctx.timing)

    def geometry_overrides(self, config) -> dict:
        return {"copy_rows_per_subarray": 0}

    def checker_invariant(self, config, geometry, timing):
        return PracInvariant(
            geometry,
            timing,
            threshold=PRAC_THRESHOLD,
            blast_radius=PRAC_BLAST_RADIUS,
        )
