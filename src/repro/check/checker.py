"""Shadow DRAM/CROW protocol-conformance oracle.

:class:`ProtocolChecker` observes every :class:`~repro.dram.commands.Command`
a channel issues (``observe`` is attached to the channel's observer bus,
:meth:`~repro.dram.device.DramChannel.attach`) and independently re-derives,
from the JEDEC-style timing parameters and the paper's CROW rules, whether
each command was legal. It deliberately shares **no scheduling or
earliest-issue code** with :mod:`repro.controller` or
:mod:`repro.dram.device`: the device's own enforcement and this checker
are two implementations of the same spec, so a bookkeeping bug in either
shows up as a disagreement instead of passing silently.

Three rule families are checked:

* **inter-command timing** — tRCD, tRAS, tRP, tRC, tRRD, tFAW (sliding
  4-ACT window), tCCD, tWTR, tRTP, tWR, read/write turnaround, tRFC and
  the tREFI refresh cadence, with the CROW-adjusted
  :class:`~repro.dram.commands.ActTimings` applied for ``ACT_C``/``ACT_T``;
* **bank/row state legality** — no column access to a closed bank, no
  activation of an open bank, no precharge of a closed bank, refresh only
  with every bank precharged;
* **CROW invariants** — ``ACT_T`` only on a row pair the stream (or a
  seeded boot-time mapping) established as duplicates, ``ACT_C``
  destinations must be in-range copy rows, no single-row activation of a
  partially-restored row or eviction of a partially-restored pair, weak
  rows never activated while the extended refresh window is in effect,
  and full refresh-window row coverage.

Violations become structured :class:`~repro.check.CheckViolation`
records. In ``strict`` mode the first violation raises
:class:`~repro.errors.ConformanceError`; in ``report`` mode they
accumulate on the :class:`~repro.check.CheckReport`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.dram.commands import ActTimings, Command, CommandKind, RowId, RowKind
from repro.dram.geometry import DramGeometry
from repro.dram.timing import REF_COMMANDS_PER_WINDOW, TimingParameters
from repro.errors import ConfigError, ConformanceError
from repro.check.violations import CheckReport, CheckViolation

if TYPE_CHECKING:
    from repro.check.invariants import CheckerInvariant

__all__ = ["ProtocolChecker", "REFRESH_POSTPONE_SLACK"]

_FAR_PAST = -(10**9)

#: JEDEC allows up to 8 REF commands to be postponed; a gap beyond
#: ``(1 + slack) * tREFI`` between consecutive REFs means rows can no
#: longer all be covered within their window.
REFRESH_POSTPONE_SLACK = 8


class _ShadowSlot:
    """Shadow state of one row buffer (a bank, or a SALP subarray)."""

    __slots__ = (
        "open_rows",
        "act_cycle",
        "act_cmd",
        "trcd",
        "tras_full",
        "tras_early",
        "twr",
        "twr_full",
        "ready_act",
        "pre_cycle",
        "last_rd",
        "last_wr",
        "prev_act_gap",
    )

    def __init__(self) -> None:
        self.open_rows: tuple[RowId, ...] | None = None
        self.act_cycle = _FAR_PAST
        self.act_cmd = ""
        self.trcd = 0
        self.tras_full = 0
        self.tras_early = 0
        self.twr = 0
        self.twr_full = 0
        self.ready_act = 0
        self.pre_cycle = _FAR_PAST
        self.last_rd = _FAR_PAST
        self.last_wr = _FAR_PAST
        #: Effective tRC floor set by the previous activation of this
        #: slot: its earliest-precharge tRAS plus tRP.
        self.prev_act_gap: tuple[int, int] | None = None


class ProtocolChecker:
    """Conformance oracle for one channel's issued command stream."""

    def __init__(
        self,
        geometry: DramGeometry,
        timing: TimingParameters,
        *,
        salp: bool = False,
        expect_refresh: bool = True,
        extended_refresh: bool = False,
        weak_rows: "frozenset[tuple[int, int]] | set[tuple[int, int]]" = (),
        assume_ideal_duplicates: bool = False,
        invariants: "tuple[CheckerInvariant, ...]" = (),
        mode: str = "strict",
        max_violations: int = 200,
    ) -> None:
        if mode not in ("strict", "report"):
            raise ConfigError(
                f"mode must be 'strict' or 'report', got {mode!r}"
            )
        if max_violations < 1:
            raise ConfigError("max_violations must be >= 1")
        self.geometry = geometry
        self.timing = timing
        self.salp = salp
        self.expect_refresh = expect_refresh
        self.extended_refresh = extended_refresh
        #: Retention-weak regular rows as ``(bank, bank_row)`` pairs;
        #: activating one while the extended window is in effect is a
        #: violation (the row cannot hold data that long).
        self.weak_rows = frozenset(weak_rows)
        #: The ideal-CROW-cache bound fabricates ``ACT_T`` pairs without
        #: ever copying (100% hit rate by construction); the duplicate-
        #: mapping invariant is vacuous for it.
        self.assume_ideal_duplicates = assume_ideal_duplicates
        #: Mechanism-contributed invariants (``repro.check.invariants``):
        #: shadow mirrors of a plugin's observable contract, dispatched
        #: after the base checks of every observed command.
        self.invariants = tuple(invariants)
        self.mode = mode
        self.max_violations = max_violations
        self.report = CheckReport()
        #: End cycle of the last :meth:`finalize` (wiring, not state: a
        #: restored checker finalizes afresh).
        self._finalized_at: int | None = None

        self._base = ActTimings(
            trcd=timing.trcd,
            tras_full=timing.tras,
            tras_early=timing.tras,
            twr=timing.twr,
        )
        # Fixed compound spacings, derived once from the spec.
        self._wr_recovery_base = timing.tcwl + timing.tbl
        self._wr_to_rd = timing.tcwl + timing.tbl + timing.twtr
        self._rd_to_wr = timing.tcl + timing.tbl + 2 - timing.tcwl

        # Shadow row-buffer state: one slot per bank, or per (bank,
        # subarray) under SALP.
        self._slots: dict[tuple[int, int], _ShadowSlot] = {}
        # Channel/rank scope.
        self._bus_free = 0
        self._act_window: deque[int] = deque(maxlen=4)
        self._last_act = _FAR_PAST
        self._last_rd = _FAR_PAST
        self._last_wr = _FAR_PAST
        self._ref_busy_until = 0
        self._last_ref = 0
        self._refs_seen = 0
        self._refresh_cursor = 0
        self._rows_per_ref = max(
            1, geometry.rows_per_bank // REF_COMMANDS_PER_WINDOW
        )
        # CROW shadow table: (bank, subarray, copy_index) -> regular row
        # index within the subarray, learned from ACT_C commands and
        # seeded boot-time remaps.
        self._crow_map: dict[tuple[int, int, int], int] = {}
        #: Copy rows serving boot-time/dynamic remaps (plain-ACT legal).
        self._remapped_copies: set[tuple[int, int, int]] = set()
        #: Rows whose last close left them partially restored.
        self._partial: set[tuple[int, RowId]] = set()

    # ------------------------------------------------------------------
    # Seeding (CROW-ref boot state)
    # ------------------------------------------------------------------
    def seed_remap(self, bank: int, regular_row: int, copy: RowId) -> None:
        """Register a boot-time weak-row remap (CROW-ref profiling).

        ``regular_row`` is the bank-level regular row number now served by
        ``copy``; plain activations of that copy row become legal.
        """
        if copy.kind is not RowKind.COPY:
            raise ConfigError("seed_remap expects a copy row")
        index = regular_row % self.geometry.rows_per_subarray
        key = (bank, copy.subarray, copy.index)
        self._crow_map[key] = index
        self._remapped_copies.add(key)

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def _violate(
        self,
        cycle: int,
        bank: int,
        constraint: str,
        command: str,
        prior: str = "",
        required: int | None = None,
        actual: int | None = None,
        message: str = "",
    ) -> None:
        violation = CheckViolation(
            cycle=cycle,
            bank=bank,
            constraint=constraint,
            command=command,
            prior=prior,
            required=required,
            actual=actual,
            message=message,
        )
        if len(self.report.violations) < self.max_violations:
            self.report.violations.append(violation)
        else:
            self.report.truncated += 1
        if self.mode == "strict":
            raise ConformanceError(violation)

    def violate(
        self,
        cycle: int,
        bank: int,
        constraint: str,
        command: str,
        prior: str = "",
        required: int | None = None,
        actual: int | None = None,
        message: str = "",
    ) -> None:
        """Public violation entry for mechanism invariants.

        Same plumbing as the checker's own checks: the violation lands
        in the report, and strict mode raises
        :class:`~repro.errors.ConformanceError`.
        """
        self._violate(
            cycle, bank, constraint, command, prior,
            required=required, actual=actual, message=message,
        )

    def _check_gap(
        self,
        now: int,
        bank: int,
        constraint: str,
        command: str,
        prior: str,
        since: int,
        required: int,
    ) -> None:
        """Flag ``command`` if fewer than ``required`` cycles passed."""
        if since == _FAR_PAST:
            return
        actual = now - since
        if actual < required:
            self._violate(
                now, bank, constraint, command, prior, required, actual
            )

    # ------------------------------------------------------------------
    # Slot addressing
    # ------------------------------------------------------------------
    def _slot(self, bank: int, subarray: int) -> _ShadowSlot:
        key = (bank, subarray if self.salp else 0)
        slot = self._slots.get(key)
        if slot is None:
            slot = _ShadowSlot()
            self._slots[key] = slot
        return slot

    def _slot_for(self, command: Command) -> _ShadowSlot:
        if not self.salp:
            return self._slot(command.bank, 0)
        if command.kind.is_activation:
            return self._slot(command.bank, command.rows[0].subarray)
        subarray = command.subarray if command.subarray is not None else 0
        return self._slot(command.bank, subarray)

    # ------------------------------------------------------------------
    # Observation entry point
    # ------------------------------------------------------------------
    def observe(self, now: int, command: Command) -> None:
        """Check one issued command and advance the shadow state."""
        self.report.commands += 1
        kind = command.kind
        name = kind.name
        bank = command.bank
        if now < self._bus_free:
            self._violate(
                now, bank, "cmd-bus", name, "",
                required=self._bus_free, actual=now,
                message="command bus still carrying the previous command",
            )
        if kind is not CommandKind.REF:
            self._check_gap(
                now, bank, "tRFC", name, "REF",
                self._ref_busy_until - self.timing.trfc
                if self._ref_busy_until else _FAR_PAST,
                self.timing.trfc,
            )
        if kind is CommandKind.ACT:
            self._observe_act(now, command)
        elif kind in (CommandKind.ACT_C, CommandKind.ACT_T):
            self._observe_crow_act(now, command)
        elif kind in (CommandKind.RD, CommandKind.WR):
            self._observe_col(now, command)
        elif kind is CommandKind.PRE:
            self._observe_pre(now, command)
        elif kind is CommandKind.REF:
            self._observe_ref(now, command)
        bus_cycles = 2 if kind in (CommandKind.ACT_C, CommandKind.ACT_T) else 1
        self._bus_free = max(self._bus_free, now + bus_cycles)
        for invariant in self.invariants:
            invariant.on_command(self, now, command)

    # ------------------------------------------------------------------
    # Activations
    # ------------------------------------------------------------------
    def _activation_timing_checks(
        self, now: int, command: Command, slot: _ShadowSlot
    ) -> bool:
        """Shared ACT/ACT_C/ACT_T checks; False when state must not move."""
        name = command.kind.name
        bank = command.bank
        if slot.open_rows is not None:
            self._violate(
                now, bank, "double-act", name, slot.act_cmd,
                message=f"bank already open on {slot.open_rows}",
            )
            return False
        if now < slot.ready_act:
            prior = "REF" if slot.pre_cycle == _FAR_PAST else "PRE"
            since = (
                slot.pre_cycle
                if prior == "PRE"
                else slot.ready_act - self.timing.trfc
            )
            required = slot.ready_act - since
            self._violate(
                now, bank, "tRP", name, prior, required, now - since,
            )
        if slot.prev_act_gap is not None:
            prev_cycle, trc = slot.prev_act_gap
            self._check_gap(
                now, bank, "tRC", name, slot.act_cmd or "ACT",
                prev_cycle, trc,
            )
        self._check_gap(
            now, bank, "tRRD", name, "ACT", self._last_act,
            self.timing.trrd,
        )
        if len(self._act_window) == 4:
            self._check_gap(
                now, bank, "tFAW", name, "ACT", self._act_window[0],
                self.timing.tfaw,
            )
        return True

    def _weak_row_check(self, now: int, command: Command) -> None:
        if not self.extended_refresh or not self.weak_rows:
            return
        rows_per_subarray = self.geometry.rows_per_subarray
        for row in command.rows:
            if row.kind is not RowKind.REGULAR:
                continue
            bank_row = row.subarray * rows_per_subarray + row.index
            if (command.bank, bank_row) in self.weak_rows:
                self._violate(
                    now, command.bank, "crow-ref-weak-row",
                    command.kind.name,
                    message=(
                        f"weak regular row {bank_row} activated while the "
                        f"extended refresh window is in effect"
                    ),
                )

    def _partial_single_check(
        self, now: int, command: Command, row: RowId
    ) -> None:
        if (command.bank, row) in self._partial:
            self._violate(
                now, command.bank, "crow-partial-single-act",
                command.kind.name,
                message=(
                    f"{row} was left partially restored and is being "
                    f"sensed without its duplicate pair"
                ),
            )

    def _apply_activation(
        self, now: int, command: Command, slot: _ShadowSlot
    ) -> None:
        timings = command.timings or self._base
        slot.open_rows = command.rows
        slot.act_cycle = now
        slot.act_cmd = command.kind.name
        slot.trcd = timings.trcd
        slot.tras_full = timings.tras_full
        slot.tras_early = timings.tras_early
        slot.twr = timings.twr
        slot.twr_full = timings.effective_twr_full
        slot.last_rd = _FAR_PAST
        slot.last_wr = _FAR_PAST
        slot.prev_act_gap = (now, timings.tras_early + self.timing.trp)
        self._act_window.append(now)
        self._last_act = now

    def _observe_act(self, now: int, command: Command) -> None:
        slot = self._slot_for(command)
        if not self._activation_timing_checks(now, command, slot):
            return
        row = command.rows[0]
        if row.kind is RowKind.COPY:
            key = (command.bank, row.subarray, row.index)
            if key not in self._crow_map:
                self._violate(
                    now, command.bank, "crow-act-copy-unmapped", "ACT",
                    message=(
                        f"copy row {row} activated but no duplicate or "
                        f"remap currently binds it to a regular row"
                    ),
                )
        self._weak_row_check(now, command)
        self._partial_single_check(now, command, row)
        self._apply_activation(now, command, slot)

    def _observe_crow_act(self, now: int, command: Command) -> None:
        slot = self._slot_for(command)
        if not self._activation_timing_checks(now, command, slot):
            return
        bank = command.bank
        name = command.kind.name
        source, dest = command.rows
        copy_rows = self.geometry.copy_rows_per_subarray
        if dest.kind is not RowKind.COPY or not 0 <= dest.index < copy_rows:
            self._violate(
                now, bank, "crow-copy-range", name,
                message=(
                    f"destination {dest} is not one of the subarray's "
                    f"{copy_rows} copy rows"
                ),
            )
        elif source.subarray != dest.subarray:
            self._violate(
                now, bank, "crow-subarray-mismatch", name,
                message=f"{source} and {dest} are in different subarrays",
            )
        elif command.kind is CommandKind.ACT_T:
            key = (bank, dest.subarray, dest.index)
            mapped = self._crow_map.get(key)
            if not self.assume_ideal_duplicates and (
                mapped != source.index or source.kind is not RowKind.REGULAR
            ):
                self._violate(
                    now, bank, "crow-act-t-unmapped", name,
                    message=(
                        f"{dest} is not currently a duplicate of {source} "
                        f"(maps regular index {mapped})"
                    ),
                )
        else:  # ACT_C establishes/overwrites the duplicate mapping.
            key = (bank, dest.subarray, dest.index)
            old = self._crow_map.get(key)
            if old is not None:
                old_regular = RowId(RowKind.REGULAR, dest.subarray, old)
                if (bank, old_regular) in self._partial:
                    self._violate(
                        now, bank, "crow-evict-partial", name,
                        message=(
                            f"{dest} evicted while its pair with "
                            f"{old_regular} was only partially restored"
                        ),
                    )
            self._partial_single_check(now, command, source)
            self._crow_map[key] = source.index
            self._remapped_copies.discard(key)
            self._partial.discard((bank, dest))
        self._weak_row_check(now, command)
        self._apply_activation(now, command, slot)

    # ------------------------------------------------------------------
    # Column accesses
    # ------------------------------------------------------------------
    def _observe_col(self, now: int, command: Command) -> None:
        slot = self._slot_for(command)
        name = command.kind.name
        bank = command.bank
        if slot.open_rows is None:
            self._violate(
                now, bank, "closed-bank-access", name,
                message="column access with no open row",
            )
            return
        self._check_gap(
            now, bank, "tRCD", name, slot.act_cmd, slot.act_cycle, slot.trcd
        )
        if command.kind is CommandKind.RD:
            self._check_gap(
                now, bank, "tCCD", "RD", "RD", self._last_rd,
                self.timing.tccd,
            )
            self._check_gap(
                now, bank, "tWTR", "RD", "WR", self._last_wr,
                self._wr_to_rd,
            )
            slot.last_rd = now
            self._last_rd = now
        else:
            self._check_gap(
                now, bank, "tCCD", "WR", "WR", self._last_wr,
                self.timing.tccd,
            )
            self._check_gap(
                now, bank, "rd-wr-turnaround", "WR", "RD", self._last_rd,
                self._rd_to_wr,
            )
            slot.last_wr = now
            self._last_wr = now

    # ------------------------------------------------------------------
    # Precharge
    # ------------------------------------------------------------------
    def _observe_pre(self, now: int, command: Command) -> None:
        slot = self._slot_for(command)
        bank = command.bank
        if slot.open_rows is None:
            self._violate(
                now, bank, "pre-closed-bank", "PRE",
                message="precharge of a bank with no open row",
            )
            return
        self._check_gap(
            now, bank, "tRAS", "PRE", slot.act_cmd, slot.act_cycle,
            slot.tras_early,
        )
        self._check_gap(
            now, bank, "tRTP", "PRE", "RD", slot.last_rd, self.timing.trtp
        )
        if slot.last_wr != _FAR_PAST:
            self._check_gap(
                now, bank, "tWR", "PRE", "WR", slot.last_wr,
                self._wr_recovery_base + slot.twr,
            )
        fully = now - slot.act_cycle >= slot.tras_full
        if fully and slot.last_wr != _FAR_PAST:
            fully = (
                now - slot.last_wr
                >= self._wr_recovery_base + slot.twr_full
            )
        for row in slot.open_rows:
            if fully:
                self._partial.discard((bank, row))
            else:
                self._partial.add((bank, row))
        slot.open_rows = None
        slot.pre_cycle = now
        slot.ready_act = now + self.timing.trp

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def _observe_ref(self, now: int, command: Command) -> None:
        if now < self._ref_busy_until:
            self._violate(
                now, -1, "tRFC", "REF", "REF",
                required=self.timing.trfc,
                actual=now - (self._ref_busy_until - self.timing.trfc),
            )
        open_banks = [
            key for key, slot in self._slots.items()
            if slot.open_rows is not None
        ]
        if open_banks:
            self._violate(
                now, open_banks[0][0], "ref-open-bank", "REF",
                message=(
                    f"{len(open_banks)} row buffer(s) still open at REF"
                ),
            )
            return
        for (bank_key, _), slot in self._slots.items():
            if now < slot.ready_act:
                self._violate(
                    now, bank_key, "tRP", "REF", "PRE",
                    required=self.timing.trp,
                    actual=now - slot.pre_cycle
                    if slot.pre_cycle != _FAR_PAST else None,
                )
                break
        if self.expect_refresh:
            allowed = (1 + REFRESH_POSTPONE_SLACK) * self.timing.trefi
            gap = now - self._last_ref
            if gap > allowed:
                self._violate(
                    now, -1, "tREFI", "REF", "REF",
                    required=-allowed, actual=-gap,
                    message=(
                        f"{gap} cycles since the previous REF exceeds the "
                        f"postponement bound of {allowed}"
                    ),
                )
        self._last_ref = now
        self._refs_seen += 1
        done = now + self.timing.trfc
        self._ref_busy_until = done
        for slot in self._slots.values():
            slot.ready_act = max(slot.ready_act, done)
        # Refresh fully restores the covered rows (and their duplicates).
        start = self._refresh_cursor
        stop = start + self._rows_per_ref
        self._refresh_cursor = stop % self.geometry.rows_per_bank
        if self._partial:
            rows_per_subarray = self.geometry.rows_per_subarray
            restored = []
            for bank, row in self._partial:
                if row.kind is RowKind.REGULAR:
                    bank_row = row.subarray * rows_per_subarray + row.index
                else:
                    mapped = self._crow_map.get(
                        (bank, row.subarray, row.index)
                    )
                    if mapped is None:
                        continue
                    bank_row = row.subarray * rows_per_subarray + mapped
                if start <= bank_row < stop:
                    restored.append((bank, row))
            for key in restored:
                self._partial.discard(key)

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def finalize(self, end_cycle: int) -> CheckReport:
        """Run whole-window checks and return the report.

        Verifies full refresh-window row coverage pro rata: over
        ``end_cycle`` elapsed cycles the stream must contain at least
        ``end_cycle / tREFI`` REF commands, minus the JEDEC postponement
        allowance — otherwise some rows outlive their refresh window.
        A repeat call at the same ``end_cycle`` returns the report
        unchanged; a later ``end_cycle`` checks again.
        """
        if end_cycle == self._finalized_at:
            return self.report
        self._finalized_at = end_cycle
        if self.expect_refresh:
            required = end_cycle // self.timing.trefi - REFRESH_POSTPONE_SLACK
            if self._refs_seen < required:
                self._violate(
                    end_cycle, -1, "refresh-coverage", "REF", "",
                    required=required, actual=self._refs_seen,
                    message=(
                        f"only {self._refs_seen} REF commands over "
                        f"{end_cycle} cycles; rows cannot all be covered "
                        f"within the {self.timing.refresh_window_ms} ms "
                        f"window"
                    ),
                )
        for invariant in self.invariants:
            invariant.finalize(self, end_cycle)
        return self.report
