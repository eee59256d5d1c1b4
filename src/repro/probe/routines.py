"""Host-side probe routines: structure and timing inference.

Every routine here sees the device only through the
:class:`~repro.probe.session.ProbeSession` observables — command
accept/reject classes, result latencies, restoration outcomes and
retention-error experiments. None reads the generating config; the
shapes they exploit are *documented interface* knowledge a probing host
legitimately has (power-of-two address decoders, the LPDDR4 command set,
the CROW-ref boot allocation convention), in the spirit of X-ray-style
DRAM reverse engineering on a SoftMC host.

The inference techniques:

* **Address-decode boundaries** — banks, rows per bank and copy rows per
  subarray are the smallest indices whose plain activation is rejected
  in the ``address`` class (decode failure is distinguishable from
  timing/state/conformance rejection on a real bus too: the device
  aliases or NACKs rather than stalls).
* **Minimum-gap searches** — every core timing parameter is the smallest
  command spacing the device accepts, found by exponential bracketing
  plus binary search over sandboxed attempts at a fixed anchor cycle.
* **Copy-decoder echo** — rows-per-subarray on a CROW device: ``ACT-c``
  a candidate row into a fixed copy slot, precharge, and test whether a
  plain activation of *subarray 0's* slot is now accepted. The echo
  lands in subarray 0 exactly when the source row decodes there.
  Candidates are probed at power-of-two rows only (decoders are
  power-of-two), which keeps the search immune to retention-weak rows.
* **SALP interference** — on a subarray-level-parallelism device, a
  second activation in the *same* bank is accepted iff it targets a
  different subarray; the same power-of-two scan finds the boundary.
* **Retention scans** — weak rows are the rows that fail a
  write/wait/read experiment at the probe run's refresh interval.
* **In-service slots + boot convention** — the CROW-ref duplicate map:
  copy slots already activatable at power-on are in service; the
  documented boot allocation (sorted weak rows assigned to usable slots
  in ascending order) attributes each slot to its source row.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ProbeError
from repro.probe.infer import InferredProfile
from repro.probe.session import ProbeSession

__all__ = [
    "count_banks",
    "count_rows_per_bank",
    "count_copy_rows",
    "detect_salp",
    "find_rows_per_subarray",
    "measure_core_timings",
    "measure_crow_timings",
    "scan_weak_rows",
    "map_duplicates",
    "discover",
]

#: Quiet cycle offset for boot-state attempts (past the command bus).
_BOOT_AT = 64
#: Gap larger than any single inter-command constraint, small enough to
#: stay far inside the refresh cadence the shadow checker enforces.
_SETTLE = 4096
_GAP_CAP = 1 << 16
_BANK_CAP = 1 << 12
_ROW_CAP = 1 << 26


# ----------------------------------------------------------------------
# Search primitives
# ----------------------------------------------------------------------
def _min_gap(
    accept: Callable[[int], bool],
    lo: int = 1,
    cap: int = _GAP_CAP,
    what: str = "gap",
) -> int:
    """Smallest ``g >= lo`` with ``accept(g)`` true (monotone predicate).

    Exponential doubling to bracket, then binary search; every probe is
    a sandboxed attempt, so the device timeline never advances.
    """
    gap = lo
    while not accept(gap):
        gap *= 2
        if gap > cap:
            raise ProbeError(
                f"cannot bracket minimum {what}: nothing accepted "
                f"below {cap} cycles"
            )
    if gap == lo:
        return gap
    rejected, accepted = gap // 2, gap
    while accepted - rejected > 1:
        mid = (rejected + accepted) // 2
        if accept(mid):
            accepted = mid
        else:
            rejected = mid
    return accepted


def _first_rejected_index(
    rejected: Callable[[int], bool], cap: int, what: str
) -> int:
    """Smallest ``i >= 0`` with ``rejected(i)`` true (monotone boundary)."""
    if rejected(0):
        return 0
    hi = 1
    while not rejected(hi):
        hi *= 2
        if hi > cap:
            raise ProbeError(
                f"no {what} decode boundary found below {cap}"
            )
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rejected(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _power_of_two_candidates(limit: int):
    candidate = 1
    while candidate < limit:
        yield candidate
        candidate *= 2


def _probe_row(s: ProbeSession, bank: int, rows_per_bank: int) -> int:
    """A row whose plain activation the device accepts at boot.

    Skips rows rejected for any reason (e.g. retention-weak rows under
    an extended refresh window, which the conformance observable vetoes).
    """
    for row in range(rows_per_bank):
        if s.attempt(s.cmd_act(bank, row), s.now + _BOOT_AT).accepted:
            return row
    raise ProbeError(f"no activatable row found in bank {bank}")


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------
def count_banks(s: ProbeSession) -> int:
    """Banks per channel: the ACT bank-address decode boundary."""
    def rejected(bank: int) -> bool:
        return s.attempt(
            s.cmd_act(bank, 0), s.now + _BOOT_AT
        ).reason == "address"

    return _first_rejected_index(rejected, _BANK_CAP, "bank")


def count_rows_per_bank(s: ProbeSession) -> int:
    """Rows per bank: the ACT row-address decode boundary."""
    def rejected(row: int) -> bool:
        return s.attempt(
            s.cmd_act(0, row), s.now + _BOOT_AT
        ).reason == "address"

    return _first_rejected_index(rejected, _ROW_CAP, "row")


def count_copy_rows(s: ProbeSession) -> int:
    """Copy rows per subarray: the copy-decoder boundary (0 = no CROW)."""
    def rejected(slot: int) -> bool:
        return s.attempt(
            s.cmd_act_copy(0, 0, slot), s.now + _BOOT_AT
        ).reason == "address"

    return _first_rejected_index(rejected, _BANK_CAP, "copy row")


def detect_salp(s: ProbeSession, probe_row: int) -> bool:
    """Whether column commands demand a subarray operand (SALP decode)."""
    with s.sandbox():
        t0 = s.now + _BOOT_AT
        s.step(s.cmd_act(0, probe_row), t0)
        outcome = s.attempt(s.cmd_rd(0), t0 + _SETTLE)
        return (not outcome.accepted) and outcome.reason == "state"


def _rps_salp(s: ProbeSession, rows_per_bank: int) -> int:
    """Rows per subarray via same-bank activation interference."""
    def same_subarray_as_row0(row: int) -> bool:
        with s.sandbox():
            t0 = s.now + _BOOT_AT
            s.step(s.cmd_act(0, 0), t0)
            return not s.attempt(s.cmd_act(0, row), t0 + _SETTLE).accepted

    for candidate in _power_of_two_candidates(rows_per_bank):
        if not same_subarray_as_row0(candidate):
            return candidate
    return rows_per_bank


def _rps_crow(
    s: ProbeSession, rows_per_bank: int, copy_rows: int
) -> "int | None":
    """Rows per subarray via the copy-decoder echo (module docstring)."""
    anchor = next(
        (
            slot
            for slot in range(copy_rows)
            if not s.attempt(
                s.cmd_act_copy(0, 0, slot), s.now + _BOOT_AT
            ).accepted
        ),
        None,
    )
    if anchor is None:
        # Every slot already serves a row; no free echo target.
        return None

    def in_subarray_zero(candidate: int) -> bool:
        # All rows in [candidate, 2*candidate) share the candidate's
        # subarray-0 membership (power-of-two decode), so a weak row can
        # always be sidestepped by its neighbour.
        for row in range(candidate, min(2 * candidate, rows_per_bank)):
            try:
                with s.sandbox():
                    s.step_earliest(s.cmd_act_c(0, row, anchor))
                    s.step_earliest(s.cmd_pre(0))
                    return s.attempt(
                        s.cmd_act_copy(0, 0, anchor), s.now + _SETTLE
                    ).accepted
            except ProbeError:
                continue
        raise ProbeError(
            f"no probe-able source row in [{candidate}, {2 * candidate})"
        )

    for candidate in _power_of_two_candidates(rows_per_bank):
        if not in_subarray_zero(candidate):
            return candidate
    return rows_per_bank


def find_rows_per_subarray(
    s: ProbeSession, rows_per_bank: int, copy_rows: int, salp: bool
) -> "int | None":
    """Rows per subarray, or ``None`` when no behaviour exposes it."""
    if salp:
        return _rps_salp(s, rows_per_bank)
    if copy_rows and s.checker is not None:
        return _rps_crow(s, rows_per_bank, copy_rows)
    return None


# ----------------------------------------------------------------------
# Core timings
# ----------------------------------------------------------------------
def measure_core_timings(
    s: ProbeSession,
    profile: InferredProfile,
    banks: int,
    rows_per_bank: int,
    salp: bool,
    rows_per_subarray: "int | None",
) -> None:
    """Recover the core timing set by minimum-gap searches."""
    row0 = _probe_row(s, 0, rows_per_bank)

    def sub(row: int) -> "int | None":
        if not salp:
            return None
        assert rows_per_subarray is not None
        return row // rows_per_subarray

    def gap_after_act(command, what: str) -> int:
        with s.sandbox():
            t0 = s.now + _BOOT_AT
            s.step(s.cmd_act(0, row0), t0)
            return _min_gap(
                lambda g: s.attempt(command, t0 + g).accepted, what=what
            )

    trcd = gap_after_act(s.cmd_rd(0, subarray=sub(row0)), "tRCD")
    profile.add("trcd", trcd, "exact", "min ACT->RD gap")
    tras = gap_after_act(s.cmd_pre(0, subarray=sub(row0)), "tRAS")
    profile.add("tras", tras, "exact", "min ACT->PRE gap")

    with s.sandbox():
        t0 = s.now + _BOOT_AT
        s.step(s.cmd_act(0, row0), t0)
        pre_at = t0 + tras
        s.step(s.cmd_pre(0, subarray=sub(row0)), pre_at)
        trp = _min_gap(
            lambda g: s.attempt(s.cmd_act(0, row0), pre_at + g).accepted,
            what="tRP",
        )
    profile.add("trp", trp, "exact", "min PRE->ACT gap")
    profile.add("trc", tras + trp, "derived", "tRAS + tRP")

    trrd = None
    if banks >= 2:
        row1 = _probe_row(s, 1, rows_per_bank)
        trrd = gap_after_act(s.cmd_act(1, row1), "tRRD")
        profile.add("trrd", trrd, "exact", "min cross-bank ACT->ACT gap")
    else:
        profile.add("trrd", None, "unobservable", "single-bank channel")

    if banks >= 5 and trrd is not None:
        rows = [row0, _probe_row(s, 1, rows_per_bank)] + [
            _probe_row(s, bank, rows_per_bank) for bank in range(2, 5)
        ]
        with s.sandbox():
            t0 = s.now + _BOOT_AT
            for i in range(4):
                s.step(s.cmd_act(i, rows[i]), t0 + i * trrd)
            tfaw_effective = _min_gap(
                lambda g: s.attempt(s.cmd_act(4, rows[4]), t0 + g).accepted,
                what="tFAW",
            )
        confidence = "bound" if tfaw_effective == 4 * trrd else "exact"
        profile.add(
            "tfaw_effective", tfaw_effective, confidence,
            "min first->fifth ACT gap (tFAW is masked below 4*tRRD)",
        )
    else:
        profile.add(
            "tfaw_effective", None, "unobservable",
            "needs five banks and a tRRD measurement",
        )

    with s.sandbox():
        t0 = s.now + _BOOT_AT
        s.step(s.cmd_act(0, row0), t0)
        rd_at = t0 + trcd + 8
        outcome = s.step(s.cmd_rd(0, subarray=sub(row0)), rd_at)
        assert outcome.data_at is not None
        read_latency = outcome.data_at - rd_at
        tccd = _min_gap(
            lambda g: s.attempt(
                s.cmd_rd(0, subarray=sub(row0)), rd_at + g
            ).accepted,
            what="tCCD",
        )
    profile.add("read_latency", read_latency, "exact", "RD data beat delay")
    profile.add("tccd", tccd, "exact", "min RD->RD gap")

    settled = max(trcd, tras) + 8

    with s.sandbox():
        t0 = s.now + _BOOT_AT
        s.step(s.cmd_act(0, row0), t0)
        rd_at = t0 + settled
        s.step(s.cmd_rd(0, subarray=sub(row0)), rd_at)
        trtp = _min_gap(
            lambda g: s.attempt(
                s.cmd_pre(0, subarray=sub(row0)), rd_at + g
            ).accepted,
            what="tRTP",
        )
    profile.add("trtp", trtp, "exact", "min RD->PRE gap (past tRAS)")

    with s.sandbox():
        t0 = s.now + _BOOT_AT
        s.step(s.cmd_act(0, row0), t0)
        wr_at = t0 + settled
        outcome = s.step(s.cmd_wr(0, subarray=sub(row0)), wr_at)
        assert outcome.done_at is not None
        write_latency = outcome.done_at - wr_at
        pre_gap = _min_gap(
            lambda g: s.attempt(
                s.cmd_pre(0, subarray=sub(row0)), wr_at + g
            ).accepted,
            what="tWR",
        )
        rd_gap = _min_gap(
            lambda g: s.attempt(
                s.cmd_rd(0, subarray=sub(row0)), wr_at + g
            ).accepted,
            what="tWTR",
        )
    profile.add(
        "write_latency", write_latency, "exact", "WR completion delay"
    )
    profile.add(
        "twr", pre_gap - write_latency, "derived",
        "min WR->PRE gap minus write latency",
    )
    profile.add(
        "twtr", rd_gap - write_latency, "derived",
        "min WR->RD gap minus write latency",
    )

    with s.sandbox():
        t0 = s.now + _BOOT_AT
        s.step(s.cmd_act(0, row0), t0)
        rd_at = t0 + settled
        s.step(s.cmd_rd(0, subarray=sub(row0)), rd_at)
        wr_gap = _min_gap(
            lambda g: s.attempt(
                s.cmd_wr(0, subarray=sub(row0)), rd_at + g
            ).accepted,
            what="read-write turnaround",
        )
    # Bus algebra: the RD->WR turnaround is tCL + tBL + 2 - tCWL, so the
    # three burst parameters fall out of the two latencies and the gap.
    tcwl = read_latency + 2 - wr_gap
    tbl = write_latency - tcwl
    profile.add("tcwl", tcwl, "derived", "read_latency + 2 - RD->WR gap")
    profile.add("tbl", tbl, "derived", "write_latency - tCWL")
    profile.add("tcl", read_latency - tbl, "derived", "read_latency - tBL")

    with s.sandbox():
        t0 = s.now + _BOOT_AT
        s.step(s.cmd_ref(), t0)
        trfc = _min_gap(
            lambda g: s.attempt(s.cmd_act(0, row0), t0 + g).accepted,
            what="tRFC",
        )
    profile.add("trfc", trfc, "exact", "min REF->ACT gap")


# ----------------------------------------------------------------------
# CROW timings
# ----------------------------------------------------------------------
def measure_crow_timings(
    s: ProbeSession,
    profile: InferredProfile,
    rows_per_bank: int,
) -> None:
    """Recover the ACT-c/ACT-t timing modes and the partial-restore
    signature from one duplicated probe row."""
    row0 = _probe_row(s, 0, rows_per_bank)
    slot = 0

    def act_c_gap(command_factory, early: bool, what: str) -> int:
        with s.sandbox():
            t0 = s.now + _BOOT_AT
            s.step(s.cmd_act_c(0, row0, slot, early=early), t0)
            return _min_gap(
                lambda g: s.attempt(command_factory(), t0 + g).accepted,
                what=what,
            )

    trcd_act_c = act_c_gap(lambda: s.cmd_rd(0), False, "tRCD-act-c")
    profile.add("trcd_act_c", trcd_act_c, "exact", "min ACT-c->RD gap")
    tras_act_c_full = act_c_gap(lambda: s.cmd_pre(0), False, "tRAS-act-c")
    profile.add(
        "tras_act_c_full", tras_act_c_full, "exact", "min ACT-c->PRE gap"
    )
    tras_act_c_early = act_c_gap(
        lambda: s.cmd_pre(0), True, "tRAS-act-c-early"
    )
    profile.add(
        "tras_act_c_early", tras_act_c_early, "exact",
        "min early-termination ACT-c->PRE gap",
    )

    def build_pair() -> None:
        """Commit a fully-restored duplicate of row0 into ``slot``."""
        t0 = s.now + _BOOT_AT
        s.step(s.cmd_act_c(0, row0, slot), t0)
        s.step(s.cmd_pre(0), t0 + tras_act_c_full)

    def act_t_gap(command_factory, partial, early, what) -> int:
        with s.sandbox():
            if partial:
                _leave_partial(s, row0, slot, tras_act_c_early)
            else:
                build_pair()
            at, _ = s.step_earliest(
                s.cmd_act_t(0, row0, slot, partial=partial, early=early)
            )
            return _min_gap(
                lambda g: s.attempt(command_factory(), at + g).accepted,
                what=what,
            )

    profile.add(
        "trcd_act_t_full",
        act_t_gap(lambda: s.cmd_rd(0), False, False, "tRCD-act-t"),
        "exact", "min ACT-t->RD gap",
    )
    profile.add(
        "tras_act_t_full",
        act_t_gap(lambda: s.cmd_pre(0), False, False, "tRAS-act-t"),
        "exact", "min ACT-t->PRE gap",
    )
    profile.add(
        "tras_act_t_early",
        act_t_gap(lambda: s.cmd_pre(0), False, True, "tRAS-act-t-early"),
        "exact", "min early-termination ACT-t->PRE gap",
    )
    profile.add(
        "trcd_act_t_partial",
        act_t_gap(lambda: s.cmd_rd(0), True, False, "tRCD-act-t-partial"),
        "exact", "min partial-pair ACT-t->RD gap",
    )
    profile.add(
        "tras_act_t_partial_early",
        act_t_gap(
            lambda: s.cmd_pre(0), True, True, "tRAS-act-t-partial-early"
        ),
        "exact", "min partial-pair early ACT-t->PRE gap",
    )

    if s.checker is None:
        profile.add(
            "partial_restore_signature", None, "unobservable",
            "needs the conformance observable",
        )
        return
    with s.sandbox():
        _leave_partial(s, row0, slot, tras_act_c_early)
        alone = s.attempt(s.cmd_act(0, row0), s.now + _SETTLE)
        paired = s.attempt(
            s.cmd_act_t(0, row0, slot, partial=True), s.now + _SETTLE
        )
        signature = (
            not alone.accepted
            and alone.reason == "conformance"
            and alone.category == "crow"
            and paired.accepted
        )
    profile.add(
        "partial_restore_signature", signature, "exact",
        "early-terminated pair rejects lone ACT but accepts paired ACT-t",
    )


def _leave_partial(
    s: ProbeSession, row: int, slot: int, tras_act_c_early: int
) -> None:
    """Commit an early-terminated ACT-c so the pair is partial."""
    t0 = s.now + _BOOT_AT
    s.step(s.cmd_act_c(0, row, slot, early=True), t0)
    s.step(s.cmd_pre(0), t0 + tras_act_c_early)


# ----------------------------------------------------------------------
# Retention and the duplicate map
# ----------------------------------------------------------------------
def scan_weak_rows(
    s: ProbeSession,
    banks: "list[int]",
    rows_per_bank: int,
    interval_ms: float,
) -> "dict[int, list[int]]":
    """Rows failing the write/wait/read experiment at ``interval_ms``."""
    return {
        bank: [
            row
            for row in range(rows_per_bank)
            if s.retention_errors(bank, row, interval_ms)
        ]
        for bank in banks
    }


def map_duplicates(
    s: ProbeSession,
    banks: "list[int]",
    rows_per_subarray: int,
    copy_rows: int,
    subarrays: int,
    weak_rows: "dict[int, list[int]]",
) -> "list[tuple[int, int, int, int | None]]":
    """Boot-time duplicate map from in-service copy slots.

    A copy slot whose plain activation the device accepts at power-on is
    in service. Slots cannot be interrogated for their source directly
    (activating a weak source row is itself vetoed under an extended
    refresh window), but the CROW-ref boot convention — sorted weak rows
    assigned to usable slots in ascending order — attributes them; a
    subarray where the counts disagree yields ``None`` sources.
    """
    entries: list[tuple[int, int, int, "int | None"]] = []
    at = s.now + _BOOT_AT
    for bank in banks:
        for subarray in range(subarrays):
            in_service = [
                slot
                for slot in range(copy_rows)
                if s.attempt(
                    s.cmd_act_copy(bank, subarray, slot), at
                ).accepted
            ]
            if not in_service:
                continue
            local_weak = sorted(
                row
                for row in weak_rows.get(bank, ())
                if row // rows_per_subarray == subarray
            )
            if len(local_weak) == len(in_service):
                entries.extend(
                    (bank, subarray, slot, row)
                    for slot, row in zip(in_service, local_weak)
                )
            else:
                entries.extend(
                    (bank, subarray, slot, None) for slot in in_service
                )
    return sorted(entries)


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def discover(
    session: ProbeSession,
    probe_banks: "list[int] | None" = None,
    retention_interval_ms: "float | None" = None,
    max_scan_rows: int = 1 << 16,
) -> InferredProfile:
    """Run the full routine library and return the inferred profile.

    ``probe_banks`` scopes the weak-row and duplicate-map scans (default:
    every bank, unless the channel holds more than ``max_scan_rows``
    rows, in which case only bank 0 is scanned — the profile records the
    scope either way). ``retention_interval_ms`` is the refresh interval
    the retention experiments target; it defaults to the session's
    declared interval regime.
    """
    s = session
    profile = InferredProfile(channel=s.channel_index)

    banks = count_banks(s)
    profile.add("banks", banks, "exact", "ACT bank-address decode boundary")
    rows_per_bank = count_rows_per_bank(s)
    profile.add(
        "rows_per_bank", rows_per_bank, "exact",
        "ACT row-address decode boundary",
    )
    copy_rows = count_copy_rows(s)
    profile.add(
        "copy_rows_per_subarray", copy_rows, "exact",
        "copy-decoder boundary",
    )

    salp = detect_salp(s, _probe_row(s, 0, rows_per_bank))
    rows_per_subarray = find_rows_per_subarray(
        s, rows_per_bank, copy_rows, salp
    )
    if rows_per_subarray is None:
        note = (
            "no subarray-visible behaviour (no copy decoder, no SALP"
            + (", or no conformance observable" if s.checker is None else "")
            + ")"
        )
        profile.add("rows_per_subarray", None, "unobservable", note)
        profile.add("subarrays_per_bank", None, "unobservable", note)
    else:
        technique = (
            "same-bank activation interference" if salp
            else "copy-decoder echo"
        )
        profile.add(
            "rows_per_subarray", rows_per_subarray, "exact", technique
        )
        profile.add(
            "subarrays_per_bank", rows_per_bank // rows_per_subarray,
            "derived", "rows_per_bank / rows_per_subarray",
        )

    measure_core_timings(
        s, profile, banks, rows_per_bank, salp, rows_per_subarray
    )
    if copy_rows:
        measure_crow_timings(s, profile, rows_per_bank)

    if probe_banks is None:
        if banks * rows_per_bank <= max_scan_rows:
            probe_banks = list(range(banks))
        else:
            probe_banks = [0]
    interval = (
        retention_interval_ms
        if retention_interval_ms is not None
        else s.target_retention_interval_ms
    )
    profile.probed_banks = list(probe_banks)
    profile.retention_interval_ms = interval
    profile.weak_rows = scan_weak_rows(
        s, probe_banks, rows_per_bank, interval
    )

    if copy_rows and s.checker is not None and rows_per_subarray is not None:
        profile.duplicate_map = map_duplicates(
            s, probe_banks, rows_per_subarray, copy_rows,
            rows_per_bank // rows_per_subarray, profile.weak_rows,
        )
    elif copy_rows:
        profile.duplicate_map_observed = False

    return profile
