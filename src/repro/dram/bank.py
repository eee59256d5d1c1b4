"""Per-bank DRAM timing state machines.

:class:`BankState` models a conventional bank: one open row (or, for CROW's
``ACT_T``/``ACT_C``, one open regular+copy pair) at a time, with earliest-
allowed-issue bookkeeping for every command class — the same approach
Ramulator uses. The device layer (:mod:`repro.dram.device`) adds the
rank- and channel-scope constraints (tRRD, tFAW, data bus, refresh).

:class:`SalpBankState` models a SALP-MASA bank (Kim et al., ISCA 2012) for
the Figure 11 baseline comparison: each subarray has its own local row
buffer that can stay open independently.
"""

from __future__ import annotations

from repro.dram.commands import ActTimings, RowId
from repro.dram.timing import TimingParameters
from repro.errors import ProtocolError, TimingViolationError

__all__ = ["BankState", "SalpBankState", "PrechargeResult"]

_FAR_PAST = -(10**9)


class PrechargeResult:
    """Outcome of a precharge: how restored the closed row(s) were left."""

    __slots__ = ("rows", "fully_restored", "open_cycles")

    def __init__(self, rows: tuple[RowId, ...], fully_restored: bool, open_cycles: int):
        self.rows = rows
        self.fully_restored = fully_restored
        self.open_cycles = open_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "full" if self.fully_restored else "partial"
        return f"PrechargeResult(rows={self.rows}, {state}, open={self.open_cycles})"


class BankState:
    """Timing state machine of one conventional DRAM bank."""

    __slots__ = (
        "timing",
        "open_rows",
        "act_time",
        "act_timings",
        "ready_act",
        "last_rd_time",
        "last_wr_time",
        "wrote_with_reduced_twr",
        "open_cycles_total",
        "_wr_recovery_base",
    )

    def __init__(self, timing: TimingParameters) -> None:
        self.timing = timing
        self.open_rows: tuple[RowId, ...] | None = None
        self.act_time = _FAR_PAST
        self.act_timings: ActTimings | None = None
        self.ready_act = 0
        self.last_rd_time = _FAR_PAST
        self.last_wr_time = _FAR_PAST
        self.wrote_with_reduced_twr = False
        self.open_cycles_total = 0
        # Fixed part of the write-recovery window (tCWL + tBL), resolved
        # once: earliest_pre()/fully_restored_if_precharged_at() add only
        # the activation's tWR on top.
        self._wr_recovery_base = timing.tcwl + timing.tbl

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        """Whether a row is currently latched in the row buffer."""
        return self.open_rows is not None

    def has_open_row(self, row: RowId) -> bool:
        """Whether ``row`` is currently latched in the row buffer."""
        return self.open_rows is not None and row in self.open_rows

    def fully_restored_if_precharged_at(self, now: int) -> bool:
        """Would a precharge at ``now`` leave the open rows fully restored?

        Two conditions (paper Section 4.1.4): the default (full) tRAS must
        have elapsed since activation, and any write issued with a
        reduced (early-terminated) tWR must also have had time to restore
        fully.
        """
        if self.open_rows is None or self.act_timings is None:
            raise ProtocolError("no open row")
        if now < self.act_time + self.act_timings.tras_full:
            return False
        if self.last_wr_time > self.act_time:
            wr_full_done = (
                self.last_wr_time
                + self._wr_recovery_base
                + self.act_timings.effective_twr_full
            )
            if now < wr_full_done:
                return False
        return True

    # ------------------------------------------------------------------
    # Earliest-issue queries
    # ------------------------------------------------------------------
    def earliest_act(self) -> int:
        """Earliest legal activation time for this bank."""
        if self.open_rows is not None:
            raise ProtocolError("cannot activate an open bank; precharge first")
        return self.ready_act

    def earliest_col(self) -> int:
        """Earliest RD/WR issue time for the open row (bank scope only)."""
        if self.open_rows is None or self.act_timings is None:
            raise ProtocolError("cannot access a closed bank")
        return self.act_time + self.act_timings.trcd

    def earliest_pre(self, honor_full_tras: bool = False) -> int:
        """Earliest legal precharge.

        With ``honor_full_tras`` the caller insists on full restoration
        (used when fully restoring a row pair before CROW-table eviction).
        """
        if self.open_rows is None or self.act_timings is None:
            raise ProtocolError("cannot precharge a closed bank")
        tras = (
            self.act_timings.tras_full
            if honor_full_tras
            else self.act_timings.tras_early
        )
        earliest = self.act_time + tras
        if self.last_rd_time != _FAR_PAST:
            earliest = max(earliest, self.last_rd_time + self.timing.trtp)
        if self.last_wr_time != _FAR_PAST and self.last_wr_time > self.act_time:
            earliest = max(
                earliest,
                self.last_wr_time + self._wr_recovery_base + self.act_timings.twr,
            )
        return earliest

    # ------------------------------------------------------------------
    # Command effects
    # ------------------------------------------------------------------
    def issue_act(
        self, now: int, rows: tuple[RowId, ...], timings: ActTimings
    ) -> None:
        """Apply an activation at ``now`` (validates timing)."""
        earliest = self.earliest_act()
        if now < earliest:
            raise TimingViolationError(
                f"ACT at {now}, allowed at {earliest}"
            )
        self.open_rows = rows
        self.act_time = now
        self.act_timings = timings
        self.last_rd_time = _FAR_PAST
        self.last_wr_time = _FAR_PAST
        self.wrote_with_reduced_twr = False

    def issue_rd(self, now: int) -> None:
        """Apply a column read at ``now`` (validates timing)."""
        earliest = self.earliest_col()
        if now < earliest:
            raise TimingViolationError(f"RD at {now}, allowed at {earliest}")
        self.last_rd_time = now

    def issue_wr(self, now: int) -> None:
        """Apply a column write at ``now`` (validates timing)."""
        earliest = self.earliest_col()
        if now < earliest:
            raise TimingViolationError(f"WR at {now}, allowed at {earliest}")
        self.last_wr_time = now
        if self.act_timings is not None and self.act_timings.twr_full is not None:
            self.wrote_with_reduced_twr = True

    def issue_pre(self, now: int) -> PrechargeResult:
        """Apply a precharge at ``now``; reports restoration state."""
        earliest = self.earliest_pre()
        if now < earliest:
            raise TimingViolationError(f"PRE at {now}, allowed at {earliest}")
        assert self.open_rows is not None
        result = PrechargeResult(
            rows=self.open_rows,
            fully_restored=self.fully_restored_if_precharged_at(now),
            open_cycles=now - self.act_time,
        )
        self.open_cycles_total += result.open_cycles
        self.open_rows = None
        self.act_timings = None
        self.ready_act = now + self.timing.trp
        return result

    def refresh_completed(self, done_at: int) -> None:
        """Block the bank until an all-bank refresh finishes."""
        if self.open_rows is not None:
            raise ProtocolError("refresh requires all banks precharged")
        self.ready_act = max(self.ready_act, done_at)


class SalpBankState:
    """A SALP-MASA bank: per-subarray row buffers, shared global bus.

    Each subarray keeps its own :class:`BankState`-like slot, so a row can
    remain latched in one subarray while another subarray activates —
    subarray-level parallelism. Column accesses from all subarrays share
    the bank's global structures, which the device layer serializes.
    """

    __slots__ = (
        "timing",
        "subarrays",
        "open_cycles_total",
        "bank_active_cycles",
        "_active_since",
    )

    def __init__(self, timing: TimingParameters, subarrays_per_bank: int) -> None:
        self.timing = timing
        self.subarrays: dict[int, BankState] = {
            i: BankState(timing) for i in range(subarrays_per_bank)
        }
        self.open_cycles_total = 0
        # Epochs during which >= 1 subarray buffer is open: the bank-level
        # circuitry (the IDD3N increment) is on exactly then; additional
        # concurrently-open local buffers cost only latch power.
        self.bank_active_cycles = 0
        self._active_since: int | None = None

    @property
    def is_open(self) -> bool:
        """Whether a row is currently latched in the row buffer."""
        return any(slot.is_open for slot in self.subarrays.values())

    @property
    def open_buffer_count(self) -> int:
        """Number of subarray row buffers currently holding an open row."""
        return sum(1 for slot in self.subarrays.values() if slot.is_open)

    def slot(self, subarray: int) -> BankState:
        """The per-subarray BankState for ``subarray``."""
        try:
            return self.subarrays[subarray]
        except KeyError:
            raise ProtocolError(f"subarray {subarray} out of range") from None

    def has_open_row(self, row: RowId) -> bool:
        """Whether ``row`` is open in its subarray's buffer."""
        return self.slot(row.subarray).has_open_row(row)

    def note_activation(self, now: int) -> None:
        """Record the bank-active epoch start (first buffer opening)."""
        if self._active_since is None:
            self._active_since = now

    def issue_pre(self, now: int, subarray: int) -> PrechargeResult:
        """Apply a precharge at ``now``; reports restoration state."""
        result = self.slot(subarray).issue_pre(now)
        self.open_cycles_total += result.open_cycles
        if self.open_buffer_count == 0 and self._active_since is not None:
            self.bank_active_cycles += now - self._active_since
            self._active_since = None
        return result

    def bank_active_total(self, now: int) -> int:
        """Bank-active cycles up to ``now`` (including an open epoch)."""
        total = self.bank_active_cycles
        if self._active_since is not None:
            total += now - self._active_since
        return total

    def refresh_completed(self, done_at: int) -> None:
        """Block until an all-bank refresh finishes."""
        for slot in self.subarrays.values():
            slot.refresh_completed(done_at)

