"""Channel-level DRAM device: command legality, rank constraints, counters.

:class:`DramChannel` owns the banks of one channel (one rank in the paper's
configuration) and enforces every constraint that spans more than one bank:

* command-bus occupancy (one command per cycle; CROW's ``ACT-c``/``ACT-t``
  take one extra address-transfer cycle, paper Section 4.1.5),
* rank-scope activation spacing (tRRD, tFAW),
* data-bus occupancy and read/write turnaround (tCCD, tWTR),
* all-bank refresh (tREFI scheduling lives in the controller; the device
  enforces the tRFC blackout and walks the refresh row counter).

The device also keeps the command counters and row-buffer-open residency
statistics that the energy model consumes, and optionally drives a
:class:`repro.dram.cellarray.CellArray` so that tests can verify functional
data integrity under the exact command stream the controller produced.
"""

from __future__ import annotations

from collections import deque

from repro.dram.bank import BankState, PrechargeResult, SalpBankState
from repro.dram.cellarray import CellArray
from repro.dram.commands import Command, CommandKind, RowId, RowKind
from repro.dram.geometry import DramGeometry
from repro.dram.tables import compile_timing_tables
from repro.dram.timing import REF_COMMANDS_PER_WINDOW, TimingParameters
from repro.errors import ConfigError, ProtocolError, TimingViolationError

__all__ = ["DramChannel", "IssueResult"]

_FAR_PAST = -(10**9)

#: Hot-path membership test for the three activation kinds (avoids the
#: ``CommandKind.is_activation`` property call per command evaluation).
_ACTIVATION_KINDS = frozenset(
    (CommandKind.ACT, CommandKind.ACT_C, CommandKind.ACT_T)
)


class IssueResult:
    """What the controller learns from issuing one command."""

    __slots__ = ("data_at", "precharge", "done_at")

    def __init__(
        self,
        data_at: int | None = None,
        precharge: PrechargeResult | None = None,
        done_at: int | None = None,
    ):
        self.data_at = data_at
        self.precharge = precharge
        self.done_at = done_at


class DramChannel:
    """One DRAM channel: banks plus rank/channel-scope timing state."""

    def __init__(
        self,
        geometry: DramGeometry,
        timing: TimingParameters,
        salp_subarrays: int | None = None,
        cell_array: CellArray | None = None,
    ) -> None:
        if salp_subarrays is not None and salp_subarrays < 1:
            raise ConfigError("salp_subarrays must be >= 1")
        self.geometry = geometry
        self.timing = timing
        self.salp = salp_subarrays is not None
        if self.salp:
            self.banks: list[BankState] | list[SalpBankState] = [
                SalpBankState(timing, salp_subarrays)
                for _ in range(geometry.banks_per_channel)
            ]
        else:
            self.banks = [
                BankState(timing) for _ in range(geometry.banks_per_channel)
            ]
        self.cell_array = cell_array
        # Compiled timing-advance tables: every cross-command spacing
        # that earliest_issue()/issue() needs is a sum of fixed timing
        # parameters, resolved once per parameter set.
        tables = compile_timing_tables(timing)
        self._base_act_timings = tables.base_act
        self._rd_after_rd = tables.rd_after_rd
        self._rd_after_wr = tables.rd_after_wr
        self._wr_after_wr = tables.wr_after_wr
        self._wr_after_rd = tables.wr_after_rd
        self._rd_data_delay = tables.rd_data_delay
        self._wr_done_delay = tables.wr_done_delay
        # Channel/rank-scope state.
        self.cmd_bus_free = 0
        self.act_history: deque[int] = deque(maxlen=4)
        self.last_act_time = _FAR_PAST
        self.last_rd_issue = _FAR_PAST
        self.last_wr_issue = _FAR_PAST
        self.ref_busy_until = 0
        self.refresh_cursor = 0
        # Statistics (consumed by the energy model and the metrics layer).
        self.counts = {kind: 0 for kind in CommandKind}
        self.busy_reads = 0
        #: State versions for schedulers that keep derived per-request
        #: state. ``version`` moves with every accepted command (and one
        #: that raises part-way through its state change);
        #: ``bank_versions[b]`` is the ``version`` at which bank ``b``'s
        #: state last changed (REF changes every bank). A snapshot
        #: carries both with the request memos stamped by them.
        self.version = 0
        self.bank_versions = [0] * geometry.banks_per_channel
        # channel_bounds() memo, valid while _bounds_version == version.
        self._bounds_version = -1
        self._bounds: tuple[int, int, int, int] = (0, 0, 0, 0)
        #: Command observers, called ``observer(now, command)`` in attach
        #: order after every accepted command (telemetry's
        #: ``EventTrace.record_command``, the shadow
        #: ``ProtocolChecker.observe``, test logs). The issue path tests
        #: this one tuple, so an unobserved channel pays one attribute
        #: test per command.
        self._observers: tuple = ()

    # ------------------------------------------------------------------
    # Command observers
    # ------------------------------------------------------------------
    def attach(self, observer) -> None:
        """Call ``observer(now, command)`` after every accepted command.

        Observers fire in attach order; a command the device rejects
        reaches none of them.
        """
        self._observers += (observer,)

    def detach(self, observer) -> None:
        """Remove one attachment of ``observer`` (ValueError if absent)."""
        observers = list(self._observers)
        observers.remove(observer)
        self._observers = tuple(observers)

    # ------------------------------------------------------------------
    # Bank access helpers
    # ------------------------------------------------------------------
    def _bank_slot(self, command: Command) -> BankState:
        """The BankState a command operates on (per-subarray for SALP)."""
        try:
            bank = self.banks[command.bank]
        except IndexError:
            raise ProtocolError(
                f"bank {command.bank} out of range "
                f"(channel has {len(self.banks)} banks)"
            ) from None
        if isinstance(bank, SalpBankState):
            if command.kind is CommandKind.PRE:
                if command.subarray is None:
                    raise ProtocolError("SALP PRE requires a subarray")
                return bank.slot(command.subarray)
            if command.kind in (CommandKind.RD, CommandKind.WR):
                if command.subarray is None:
                    raise ProtocolError("SALP column access requires a subarray")
                return bank.slot(command.subarray)
            return bank.slot(command.rows[0].subarray)
        return bank

    def validate_address(self, command: Command) -> None:
        """Reject commands whose addresses fall outside this geometry.

        The controller never constructs out-of-range commands, so the
        issue path does not pay for these checks; raw hosts
        (:mod:`repro.probe`) feed arbitrary addresses and call this as
        the device's address decoder — a failed decode is a
        :class:`ProtocolError`, distinct from timing/state rejection.
        Negative bank indices would otherwise alias Python's
        end-relative list indexing.
        """
        geometry = self.geometry
        if not 0 <= command.bank < len(self.banks):
            raise ProtocolError(
                f"bank {command.bank} out of range "
                f"(channel has {len(self.banks)} banks)"
            )
        for row in command.rows:
            if not 0 <= row.subarray < geometry.subarrays_per_bank:
                raise ProtocolError(
                    f"subarray {row.subarray} out of range "
                    f"(bank has {geometry.subarrays_per_bank} subarrays)"
                )
            limit = (
                geometry.copy_rows_per_subarray
                if row.kind is RowKind.COPY
                else geometry.rows_per_subarray
            )
            space = "copy" if row.kind is RowKind.COPY else "regular"
            if not 0 <= row.index < limit:
                raise ProtocolError(
                    f"{space} row index {row.index} out of range "
                    f"(subarray has {limit} {space} rows)"
                )
        if command.subarray is not None and not (
            0 <= command.subarray < geometry.subarrays_per_bank
        ):
            raise ProtocolError(
                f"subarray {command.subarray} out of range "
                f"(bank has {geometry.subarrays_per_bank} subarrays)"
            )

    def open_rows(self, bank: int) -> tuple[RowId, ...] | None:
        """Open row(s) of a conventional bank (None when closed)."""
        slot = self.banks[bank]
        if isinstance(slot, SalpBankState):
            raise ProtocolError("use salp_open_rows for SALP banks")
        return slot.open_rows

    # ------------------------------------------------------------------
    # Earliest-issue computation
    # ------------------------------------------------------------------
    def channel_bounds(self) -> tuple[int, int, int, int]:
        """Channel-scope readiness bounds ``(act, rd, wr, pre)``.

        Every command waits for the command bus and the refresh
        blackout; ``act`` adds tRRD and tFAW, ``rd`` and ``wr`` add the
        read/write turnarounds, ``pre`` adds nothing. A command's
        earliest issue cycle is the maximum of its bound here and its
        bank slot's (``earliest_act``/``earliest_col``/``earliest_pre``),
        so a caller probing many commands in one channel state can
        compute these once and combine them with per-slot bounds.

        Memoized on :attr:`version`: every change to the state read here
        bumps it, so the scheduling pass, the ``issue`` re-validation of
        the command it picked and the row-timeout and refresh probes of
        one channel state share one computation.
        """
        if self._bounds_version == self.version:
            return self._bounds
        # Inline comparisons instead of max() calls: this runs on every
        # scheduling pass and the builtin-call overhead is measurable.
        earliest = self.cmd_bus_free
        bound = self.ref_busy_until
        if bound > earliest:
            earliest = bound
        act = rd = wr = earliest
        last_act = self.last_act_time
        if last_act != _FAR_PAST:
            bound = last_act + self.timing.trrd
            if bound > act:
                act = bound
        if len(self.act_history) == 4:
            bound = self.act_history[0] + self.timing.tfaw
            if bound > act:
                act = bound
        last_rd = self.last_rd_issue
        if last_rd != _FAR_PAST:
            bound = last_rd + self._rd_after_rd
            if bound > rd:
                rd = bound
            bound = last_rd + self._wr_after_rd
            if bound > wr:
                wr = bound
        last_wr = self.last_wr_issue
        if last_wr != _FAR_PAST:
            bound = last_wr + self._rd_after_wr
            if bound > rd:
                rd = bound
            bound = last_wr + self._wr_after_wr
            if bound > wr:
                wr = bound
        bounds = (act, rd, wr, earliest)
        self._bounds = bounds
        self._bounds_version = self.version
        return bounds

    def earliest_act(self, bank: int, subarray: int) -> int:
        """Earliest cycle at which any activation of ``bank`` can issue.

        Every activation kind (``ACT``, ``ACT-c``, ``ACT-t``) shares these
        bounds: the channel-scope ``act`` bound of :meth:`channel_bounds`
        and the bank's — for SALP, the ``subarray`` slot's — ``ready_act``.
        ``subarray`` is ignored for conventional banks. The controller
        probes readiness through these bounds so that it can defer
        building an activation plan until one actually issues.

        Raises :class:`ProtocolError` if the bank (slot) is open.
        """
        try:
            slot = self.banks[bank]
        except IndexError:
            raise ProtocolError(
                f"bank {bank} out of range "
                f"(channel has {len(self.banks)} banks)"
            ) from None
        if self.salp:
            slot = slot.slot(subarray)  # type: ignore[union-attr]
        earliest = slot.earliest_act()  # type: ignore[union-attr]
        bound = self.channel_bounds()[0]
        return bound if bound > earliest else earliest

    def earliest_issue(self, command: Command, honor_full_tras: bool = False) -> int:
        """Earliest cycle at which ``command`` satisfies every constraint.

        Raises :class:`ProtocolError` if the command is illegal in the
        current bank state regardless of time (e.g. ACT to an open bank).
        """
        kind = command.kind
        if kind in _ACTIVATION_KINDS:
            return self.earliest_act(command.bank, command.rows[0].subarray)
        _, rd, wr, earliest = self.channel_bounds()
        if kind is CommandKind.RD:
            bound = self._bank_slot(command).earliest_col()
            earliest = rd
        elif kind is CommandKind.WR:
            bound = self._bank_slot(command).earliest_col()
            earliest = wr
        elif kind is CommandKind.PRE:
            bound = self._bank_slot(command).earliest_pre(honor_full_tras)
        elif kind is CommandKind.REF:
            for bank in self.banks:
                if bank.is_open:
                    raise ProtocolError("REF requires all banks precharged")
            bound = earliest
            if self.salp:
                for bank in self.banks:
                    for slot in bank.subarrays.values():  # type: ignore[union-attr]
                        if slot.ready_act > bound:
                            bound = slot.ready_act
            else:
                for bank in self.banks:
                    if bank.ready_act > bound:  # type: ignore[union-attr]
                        bound = bank.ready_act
        else:  # pragma: no cover - enum is exhaustive
            raise ProtocolError(f"unknown command kind {kind}")
        return bound if bound > earliest else earliest

    # ------------------------------------------------------------------
    # Command issue
    # ------------------------------------------------------------------
    def issue(
        self, command: Command, now: int, honor_full_tras: bool = False
    ) -> IssueResult:
        """Apply ``command`` at cycle ``now``, enforcing all constraints."""
        earliest = self.earliest_issue(command, honor_full_tras)
        if now < earliest:
            raise TimingViolationError(
                f"{command.kind.name} at {now}, allowed at {earliest}"
            )
        timing = self.timing
        kind = command.kind
        result = IssueResult()
        # Bumped before any state changes, so a command that raises
        # part-way (a functional-layer DataIntegrityError) cannot leave
        # a stale channel_bounds() memo behind.
        version = self.version + 1
        self.version = version

        if kind in _ACTIVATION_KINDS:
            slot = self._bank_slot(command)
            timings = command.timings or self._base_act_timings
            # The functional layer checks data integrity *before* the bank
            # state mutates, so a raised DataIntegrityError leaves the
            # device consistent (the activation never happened).
            if self.cell_array is not None:
                self.cell_array.on_activate(command, now)
            bank = self.banks[command.bank]
            if isinstance(bank, SalpBankState):
                bank.note_activation(now)
            slot.issue_act(now, command.rows, timings)
            self.act_history.append(now)
            self.last_act_time = now
        elif kind is CommandKind.RD:
            slot = self._bank_slot(command)
            slot.issue_rd(now)
            self.last_rd_issue = now
            result.data_at = now + self._rd_data_delay
            if self.cell_array is not None:
                self.cell_array.on_read(command, now)
        elif kind is CommandKind.WR:
            slot = self._bank_slot(command)
            slot.issue_wr(now)
            self.last_wr_issue = now
            result.done_at = now + self._wr_done_delay
            if self.cell_array is not None:
                self.cell_array.on_write(command, now)
        elif kind is CommandKind.PRE:
            bank = self.banks[command.bank]
            if isinstance(bank, SalpBankState):
                assert command.subarray is not None
                result.precharge = bank.issue_pre(now, command.subarray)
            else:
                result.precharge = bank.issue_pre(now)
            if self.cell_array is not None:
                self.cell_array.on_precharge(command, now, result.precharge)
        elif kind is CommandKind.REF:
            done = now + timing.trfc
            self.ref_busy_until = done
            for bank in self.banks:
                bank.refresh_completed(done)
            refreshed = self._advance_refresh_cursor()
            if self.cell_array is not None:
                self.cell_array.on_refresh(refreshed, now)
            result.done_at = done
        self.counts[kind] += 1
        # CROW commands carry an extra copy-row address cycle (footnote 3).
        bus_cycles = 2 if kind in (CommandKind.ACT_C, CommandKind.ACT_T) else 1
        self.cmd_bus_free = now + bus_cycles
        if kind is CommandKind.REF:
            self.bank_versions[:] = [version] * len(self.banks)
        else:
            self.bank_versions[command.bank] = version
        if self._observers:
            for observer in self._observers:
                observer(now, command)
        return result

    def _advance_refresh_cursor(self) -> range:
        """Row range (per bank) covered by this REF command."""
        rows_per_ref = max(
            1, self.geometry.rows_per_bank // REF_COMMANDS_PER_WINDOW
        )
        start = self.refresh_cursor
        stop = start + rows_per_ref
        self.refresh_cursor = stop % self.geometry.rows_per_bank
        return range(start, stop)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def open_buffer_cycles(self, now: int) -> int:
        """Total row-buffer-open residency up to ``now`` (energy input)."""
        total = 0
        for bank in self.banks:
            if isinstance(bank, SalpBankState):
                total += bank.open_cycles_total
                for slot in bank.subarrays.values():
                    if slot.is_open:
                        total += now - slot.act_time
            else:
                total += bank.open_cycles_total
                if bank.is_open:
                    total += now - bank.act_time
        return total

    def bank_active_cycles(self, now: int) -> int:
        """Cycles during which each bank had >= 1 open row, summed.

        Equals :meth:`open_buffer_cycles` for conventional banks (one
        buffer per bank); for SALP banks it excludes the *additional*
        concurrently-open local buffers, which carry only latch power.
        """
        total = 0
        for bank in self.banks:
            if isinstance(bank, SalpBankState):
                total += bank.bank_active_total(now)
            else:
                total += bank.open_cycles_total
                if bank.is_open:
                    total += now - bank.act_time
        return total

    @property
    def activation_count(self) -> int:
        """Activations of every kind (ACT + ACT-c + ACT-t)."""
        return (
            self.counts[CommandKind.ACT]
            + self.counts[CommandKind.ACT_C]
            + self.counts[CommandKind.ACT_T]
        )
