"""Unit tests for the shadow protocol checker.

Synthetic command streams are fed straight to
:class:`repro.check.ProtocolChecker` (bypassing the device, which would
reject them itself) — the checker plays the role of a protocol analyzer
attached to a possibly-buggy controller. Every rule family has a
violating stream and a minimally-legal one.
"""

import pytest

from repro.check import CheckReport, CheckViolation, ProtocolChecker
from repro.dram.commands import (
    ActTimings,
    Command,
    CommandKind,
    RowId,
)
from repro.dram.geometry import DramGeometry
from repro.dram.timing import CrowTimings, TimingParameters
from repro.errors import ConfigError, ConformanceError

GEO = DramGeometry()
T = TimingParameters.lpddr4()
CROW = CrowTimings.from_factors(T)


def act(row=0, bank=0):
    return Command(
        kind=CommandKind.ACT,
        bank=bank,
        rows=(RowId.regular(row, GEO.rows_per_subarray),),
    )


def act_c(row=0, way=0, bank=0, timings=None):
    regular = RowId.regular(row, GEO.rows_per_subarray)
    return Command(
        kind=CommandKind.ACT_C,
        bank=bank,
        rows=(regular, RowId.copy(regular.subarray, way)),
        timings=timings,
    )


def act_t(row=0, way=0, bank=0, timings=None):
    regular = RowId.regular(row, GEO.rows_per_subarray)
    return Command(
        kind=CommandKind.ACT_T,
        bank=bank,
        rows=(regular, RowId.copy(regular.subarray, way)),
        timings=timings,
    )


def rd(bank=0):
    return Command(kind=CommandKind.RD, bank=bank, rows=(), col=0)


def wr(bank=0):
    return Command(kind=CommandKind.WR, bank=bank, rows=(), col=0)


def pre(bank=0):
    return Command(kind=CommandKind.PRE, bank=bank, rows=())


def ref():
    return Command(kind=CommandKind.REF, bank=0, rows=())


def checker(**kwargs):
    kwargs.setdefault("mode", "report")
    kwargs.setdefault("expect_refresh", False)
    return ProtocolChecker(GEO, T, **kwargs)


def constraints(c):
    return [v.constraint for v in c.report.violations]


class TestTimingConstraints:
    def test_shaved_trcd_read_is_caught(self):
        """Acceptance mutation #1: a RD one cycle before tRCD expires."""
        c = checker()
        c.observe(0, act())
        c.observe(T.trcd - 1, rd())
        (v,) = c.report.violations
        assert v.constraint == "tRCD"
        assert (v.prior, v.command) == ("ACT", "RD")
        assert v.required == T.trcd
        assert v.actual == T.trcd - 1
        assert v.slack == -1

    def test_rd_at_trcd_is_legal(self):
        c = checker()
        c.observe(0, act())
        c.observe(T.trcd, rd())
        assert c.report.ok

    def test_crow_act_t_reduced_trcd_applies(self):
        """CROW's ACT-t tRCD is honored: legal for ACT-t, not for ACT."""
        timings = ActTimings(
            trcd=CROW.trcd_act_t_full,
            tras_full=CROW.tras_act_t_full,
            tras_early=CROW.tras_act_t_early,
            twr=T.twr,
        )
        c = checker(assume_ideal_duplicates=True)
        c.observe(0, act_t(timings=timings))
        c.observe(CROW.trcd_act_t_full, rd())
        assert c.report.ok
        assert CROW.trcd_act_t_full < T.trcd

    def test_early_precharge_violates_tras(self):
        c = checker()
        c.observe(0, act())
        c.observe(T.tras - 1, pre())
        assert constraints(c) == ["tRAS"]

    def test_act_before_trp_expires(self):
        c = checker()
        c.observe(0, act())
        c.observe(T.tras, pre())
        c.observe(T.tras + T.trp - 1, act(1))
        assert "tRP" in constraints(c)

    def test_trc_reported_for_act_to_act(self):
        c = checker()
        c.observe(0, act())
        c.observe(T.tras, pre())
        c.observe(T.tras + T.trp - 1, act(1))
        assert "tRC" in constraints(c)

    def test_trrd_between_banks(self):
        c = checker()
        c.observe(0, act(0, bank=0))
        c.observe(T.trrd - 1, act(0, bank=1))
        assert constraints(c) == ["tRRD"]

    def test_tfaw_fifth_act_in_window(self):
        c = checker()
        for i in range(4):
            c.observe(i * T.trrd, act(i, bank=i))
        c.observe(T.tfaw - 1, act(4, bank=4))
        assert "tFAW" in constraints(c)

    def test_tfaw_fifth_act_after_window_is_legal(self):
        c = checker()
        for i in range(4):
            c.observe(i * T.trrd, act(i, bank=i))
        c.observe(T.tfaw, act(4, bank=4))
        assert c.report.ok

    def test_tccd_between_reads(self):
        c = checker()
        c.observe(0, act())
        c.observe(T.trcd, rd())
        c.observe(T.trcd + T.tccd - 1, rd())
        assert constraints(c) == ["tCCD"]

    def test_twtr_write_to_read(self):
        c = checker()
        c.observe(0, act())
        c.observe(T.trcd, wr())
        gap = T.tcwl + T.tbl + T.twtr
        c.observe(T.trcd + gap - 1, rd())
        assert constraints(c) == ["tWTR"]

    def test_read_to_write_turnaround(self):
        c = checker()
        c.observe(0, act())
        c.observe(T.trcd, rd())
        gap = T.tcl + T.tbl + 2 - T.tcwl
        c.observe(T.trcd + gap - 1, wr())
        assert constraints(c) == ["rd-wr-turnaround"]

    def test_trtp_read_to_precharge(self):
        c = checker()
        c.observe(0, act())
        t_rd = T.tras
        c.observe(t_rd, rd())
        c.observe(t_rd + T.trtp - 1, pre())
        assert constraints(c) == ["tRTP"]

    def test_twr_write_recovery_before_precharge(self):
        c = checker()
        c.observe(0, act())
        t_wr = T.tras
        c.observe(t_wr, wr())
        gap = T.tcwl + T.tbl + T.twr
        c.observe(t_wr + gap - 1, pre())
        assert constraints(c) == ["tWR"]

    def test_trfc_blackout_after_refresh(self):
        c = checker()
        c.observe(0, ref())
        c.observe(T.trfc - 1, act())
        assert "tRFC" in constraints(c)

    def test_command_bus_double_occupancy(self):
        c = checker()
        c.observe(0, act(0, bank=0))
        # ACT occupies the bus for one cycle; same-cycle issue collides.
        c.observe(0, rd(bank=1))
        assert "cmd-bus" in constraints(c)

    def test_crow_act_occupies_bus_two_cycles(self):
        c = checker(assume_ideal_duplicates=True)
        c.observe(0, act_t())
        c.observe(1, act(0, bank=1))
        assert "cmd-bus" in constraints(c)

    def test_trefi_cadence_gap(self):
        c = ProtocolChecker(GEO, T, mode="report", expect_refresh=True)
        c.observe(9 * T.trefi + 1, ref())
        assert "tREFI" in constraints(c)

    def test_refresh_coverage_at_finalize(self):
        c = ProtocolChecker(GEO, T, mode="report", expect_refresh=True)
        c.observe(T.trefi, ref())
        report = c.finalize(20 * T.trefi)
        assert "refresh-coverage" in [
            v.constraint for v in report.violations
        ]

    def test_repeat_finalize_adds_nothing(self):
        """A second finalize at the same end cycle (System.check_report
        called twice) must not double-count; a later one re-checks."""
        c = ProtocolChecker(GEO, T, mode="report", expect_refresh=True)
        c.observe(T.trefi, ref())
        c.finalize(20 * T.trefi)
        report = c.finalize(20 * T.trefi)
        assert constraints(c) == ["refresh-coverage"]
        assert report.total_violations == 1
        c.finalize(30 * T.trefi)
        assert constraints(c) == ["refresh-coverage"] * 2

    def test_refresh_coverage_satisfied(self):
        c = ProtocolChecker(GEO, T, mode="report", expect_refresh=True)
        for i in range(1, 20):
            c.observe(i * T.trefi, ref())
        assert c.finalize(20 * T.trefi).ok


class TestStateMachine:
    def test_double_activation(self):
        c = checker()
        c.observe(0, act(0))
        c.observe(1000, act(1))
        assert constraints(c) == ["double-act"]

    def test_read_closed_bank(self):
        c = checker()
        c.observe(0, rd())
        assert constraints(c) == ["closed-bank-access"]

    def test_write_closed_bank(self):
        c = checker()
        c.observe(0, wr())
        assert constraints(c) == ["closed-bank-access"]

    def test_precharge_closed_bank(self):
        c = checker()
        c.observe(0, pre())
        assert constraints(c) == ["pre-closed-bank"]

    def test_refresh_with_open_bank(self):
        c = checker()
        c.observe(0, act())
        c.observe(1000, ref())
        assert constraints(c) == ["ref-open-bank"]

    def test_pre_closes_what_was_opened(self):
        c = checker()
        c.observe(0, act(0))
        c.observe(T.tras, pre())
        c.observe(T.tras + T.trp, act(1))
        assert c.report.ok


class TestCrowInvariants:
    def test_act_t_on_unmapped_copy_row(self):
        """Acceptance mutation #2: ACT-t without a duplicate mapping."""
        c = checker()
        c.observe(0, act_t(row=0, way=3))
        assert constraints(c) == ["crow-act-t-unmapped"]

    def test_act_t_after_act_c_is_legal(self):
        c = checker()
        c.observe(0, act_c(row=5, way=3))
        c.observe(T.trc, pre())
        c.observe(T.trc + T.trp, act_t(row=5, way=3))
        assert c.report.ok

    def test_act_t_wrong_source_row(self):
        c = checker()
        c.observe(0, act_c(row=5, way=3))
        c.observe(T.trc, pre())
        c.observe(T.trc + T.trp, act_t(row=6, way=3))
        assert "crow-act-t-unmapped" in constraints(c)

    def test_act_c_overwrites_mapping(self):
        c = checker()
        c.observe(0, act_c(row=5, way=3))
        c.observe(T.trc, pre())
        c.observe(T.trc + T.trp, act_c(row=9, way=3))
        c.observe(2 * T.trc, pre())
        c.observe(2 * T.trc + T.trp, act_t(row=5, way=3))
        assert "crow-act-t-unmapped" in constraints(c)

    def test_act_c_destination_out_of_range(self):
        c = checker()
        c.observe(0, act_c(row=0, way=GEO.copy_rows_per_subarray))
        assert "crow-copy-range" in constraints(c)

    def test_plain_act_on_unmapped_copy_row(self):
        copy = RowId.copy(0, 2)
        c = checker()
        c.observe(0, Command(kind=CommandKind.ACT, bank=0, rows=(copy,)))
        assert constraints(c) == ["crow-act-copy-unmapped"]

    def test_plain_act_on_duplicated_copy_row_is_legal(self):
        c = checker()
        c.observe(0, act_c(row=5, way=2))
        c.observe(T.trc, pre())
        copy = RowId.copy(0, 2)
        c.observe(
            T.trc + T.trp,
            Command(kind=CommandKind.ACT, bank=0, rows=(copy,)),
        )
        assert c.report.ok

    def test_seeded_remap_allows_plain_act(self):
        c = checker()
        c.seed_remap(0, 17, RowId.copy(0, 1))
        copy = RowId.copy(0, 1)
        c.observe(0, Command(kind=CommandKind.ACT, bank=0, rows=(copy,)))
        assert c.report.ok

    def test_seed_remap_rejects_regular_row(self):
        c = checker()
        with pytest.raises(ConfigError):
            c.seed_remap(0, 17, RowId.regular(3, GEO.rows_per_subarray))

    def test_weak_row_activation_at_extended_window(self):
        c = checker(extended_refresh=True, weak_rows={(0, 5)})
        c.observe(0, act(5))
        assert constraints(c) == ["crow-ref-weak-row"]

    def test_weak_row_at_base_window_is_legal(self):
        c = checker(extended_refresh=False, weak_rows={(0, 5)})
        c.observe(0, act(5))
        assert c.report.ok

    def test_strong_row_at_extended_window_is_legal(self):
        c = checker(extended_refresh=True, weak_rows={(0, 5)})
        c.observe(0, act(6))
        assert c.report.ok

    def test_partial_restore_single_activation(self):
        """An early-terminated pair must not be sensed row-alone."""
        timings = ActTimings(
            trcd=CROW.trcd_act_t_full,
            tras_full=CROW.tras_act_t_full,
            tras_early=CROW.tras_act_t_early,
            twr=T.twr,
        )
        c = checker()
        c.observe(0, act_c(row=5, way=3))
        c.observe(T.trc, pre())
        t1 = T.trc + T.trp
        c.observe(t1, act_t(row=5, way=3, timings=timings))
        # Close after tras_early but before tras_full: partially restored.
        t2 = t1 + CROW.tras_act_t_early
        assert CROW.tras_act_t_early < CROW.tras_act_t_full
        c.observe(t2, pre())
        c.observe(t2 + T.trp, act(5))
        assert "crow-partial-single-act" in constraints(c)

    def test_partial_pair_reactivated_together_is_legal(self):
        timings = ActTimings(
            trcd=CROW.trcd_act_t_full,
            tras_full=CROW.tras_act_t_full,
            tras_early=CROW.tras_act_t_early,
            twr=T.twr,
        )
        c = checker()
        c.observe(0, act_c(row=5, way=3))
        c.observe(T.trc, pre())
        t1 = T.trc + T.trp
        c.observe(t1, act_t(row=5, way=3, timings=timings))
        t2 = t1 + CROW.tras_act_t_early
        c.observe(t2, pre())
        c.observe(t2 + T.trp, act_t(row=5, way=3, timings=timings))
        assert c.report.ok

    def test_evicting_partial_pair_is_flagged(self):
        timings = ActTimings(
            trcd=CROW.trcd_act_t_full,
            tras_full=CROW.tras_act_t_full,
            tras_early=CROW.tras_act_t_early,
            twr=T.twr,
        )
        c = checker()
        c.observe(0, act_c(row=5, way=3))
        c.observe(T.trc, pre())
        t1 = T.trc + T.trp
        c.observe(t1, act_t(row=5, way=3, timings=timings))
        t2 = t1 + CROW.tras_act_t_early
        c.observe(t2, pre())
        c.observe(t2 + T.trp, act_c(row=9, way=3))
        assert "crow-evict-partial" in constraints(c)

    def test_assume_ideal_duplicates_skips_mapping_check(self):
        c = checker(assume_ideal_duplicates=True)
        c.observe(0, act_t(row=0, way=0))
        assert c.report.ok


class TestModesAndReport:
    def test_strict_mode_raises_with_violation_attached(self):
        c = ProtocolChecker(GEO, T, mode="strict", expect_refresh=False)
        c.observe(0, act())
        with pytest.raises(ConformanceError) as excinfo:
            c.observe(T.trcd - 1, rd())
        violation = excinfo.value.violation
        assert isinstance(violation, CheckViolation)
        assert violation.constraint == "tRCD"
        # The violation is also recorded before the raise.
        assert c.report.violations == [violation]

    def test_report_mode_accumulates(self):
        c = checker()
        c.observe(0, rd())
        c.observe(1, rd(bank=1))
        assert len(c.report.violations) == 2
        assert not c.report.ok

    def test_max_violations_truncation(self):
        c = checker(max_violations=2)
        for i in range(5):
            c.observe(i, rd(bank=i % GEO.banks_per_rank))
        assert len(c.report.violations) == 2
        assert c.report.truncated == 3
        assert c.report.total_violations == 5

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolChecker(GEO, T, mode="lenient")

    def test_report_merge_and_by_constraint(self):
        a = checker()
        a.observe(0, rd())
        b = checker()
        b.observe(0, act(0))
        b.observe(1000, act(1))
        merged = CheckReport().merge(a.report).merge(b.report)
        assert merged.commands == 3
        assert merged.by_constraint() == {
            "closed-bank-access": 1,
            "double-act": 1,
        }

    def test_report_json_round_trip(self, tmp_path):
        import json

        c = checker()
        c.observe(0, act())
        c.observe(T.trcd - 1, rd())
        path = tmp_path / "report.json"
        c.report.write_json(path)
        data = json.loads(path.read_text())
        assert data["total_violations"] == 1
        assert data["violations"][0]["constraint"] == "tRCD"
        assert data["violations"][0]["slack"] == -1

    def test_violation_str_format(self):
        c = checker()
        c.observe(0, act())
        c.observe(T.trcd - 1, rd())
        text = str(c.report.violations[0])
        assert "tRCD" in text
        assert "ACT->RD" in text
        assert "slack -1" in text

    def test_summary_lines(self):
        c = checker()
        c.observe(0, act())
        assert "conformant" in c.report.summary()
        c.observe(T.trcd - 1, rd())
        assert "violation" in c.report.summary()


class TestSalp:
    def test_per_subarray_slots(self):
        """Two subarrays of one SALP bank may be open concurrently."""
        c = ProtocolChecker(
            GEO, T, salp=True, mode="report", expect_refresh=False
        )
        rows = GEO.rows_per_subarray
        c.observe(0, act(0))
        c.observe(T.trrd, act(rows))  # next subarray, same bank
        assert c.report.ok

    def test_non_salp_rejects_second_open(self):
        c = checker()
        rows = GEO.rows_per_subarray
        c.observe(0, act(0))
        c.observe(T.trrd, act(rows))
        assert constraints(c) == ["double-act"]


class TestSystemIntegration:
    def test_checked_run_is_conformant_and_digest_stable(self):
        """Attaching the checker must not perturb simulated execution."""
        import json
        from pathlib import Path

        from repro.check.scenarios import run_checked_case

        data = Path(__file__).resolve().parent.parent / "data"
        expected = json.loads((data / "expected_digests.json").read_text())
        result, report = run_checked_case(
            ("libq",), "baseline", 2_000, 500, seed=1, telemetry=True
        )
        assert report.ok
        assert report.commands > 0
        want = expected["libq-baseline"]
        assert result.telemetry_digest() == want["digest"]
        assert result.cycles == want["cycles"]

    def test_config_rejects_bad_check_mode(self):
        from repro.sim.config import SystemConfig

        with pytest.raises(ConfigError):
            SystemConfig(check=True, check_mode="lenient")

    def test_check_report_requires_check_enabled(self):
        from repro.sim.config import SystemConfig
        from repro.sim.system import System
        from repro.trace.workloads import workload

        system = System(SystemConfig(), [workload("libq").trace(0)])
        with pytest.raises(ConfigError):
            system.check_report()
