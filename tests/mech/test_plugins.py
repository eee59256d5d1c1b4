"""Unit tests for the related-work mechanism plugins.

Small geometry (64 rows/bank, 16 rows/subarray) and low thresholds so
every policy transition — HiRA schedule advance, CnC-PRAC alert /
mitigation / coalescing, CLR-DRAM promotion / demotion — is exercised
directly, without a full-system run.
"""

import pickle

from repro.controller.mechanism import IDLE, ActivationPlan
from repro.dram.commands import Command, CommandKind, RowId
from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParameters
from repro.mech.clrdram import ClrDram, ClrInvariant, fast_timings
from repro.mech.cncprac import CncPrac, PracInvariant
from repro.mech.hira import (
    COVERAGE_SLACK_INTERVALS,
    HiddenRowActivation,
    HiraRefreshInvariant,
    hira_interval,
)
from repro.snapshot import state_tree

GEOMETRY = DramGeometry(
    channels=1,
    rows_per_bank=64,
    rows_per_subarray=16,
    copy_rows_per_subarray=0,
)
TIMING = TimingParameters.lpddr4(density_gbit=8)
RPS = GEOMETRY.rows_per_subarray
BANKS = GEOMETRY.banks_per_channel


def plain_plan(row):
    return ActivationPlan(
        kind=CommandKind.ACT, rows=(RowId.regular(row, RPS),)
    )


def act(bank, row, timings=None):
    return Command(
        CommandKind.ACT,
        bank=bank,
        rows=(RowId.regular(row, RPS),),
        timings=timings,
    )


def round_trip(obj):
    """A pickled copy of ``obj``, checked equal to it field by field."""
    clone = pickle.loads(pickle.dumps(obj))
    assert state_tree(clone) == state_tree(obj)
    return clone


class _RecordingChecker:
    """Captures invariant violations instead of raising."""

    def __init__(self):
        self.constraints = []

    def violate(self, cycle, bank, constraint, command, prior="",
                required=None, actual=None, message=""):
        self.constraints.append(constraint)


class TestHira:
    def test_interval_paces_full_window_coverage(self):
        # rows_per_ref = 1 (64 rows < one REF window), 8 banks:
        # 8 refresh ACTs per tREFI.
        assert hira_interval(GEOMETRY, TIMING) == TIMING.trefi // BANKS

    def test_schedule_is_bank_major(self):
        mech = HiddenRowActivation(GEOMETRY, TIMING)
        interval = mech.interval
        seen = []
        now = interval
        for _ in range(BANKS + 1):
            bank, plan = mech.urgent_plan(now)
            seen.append((bank, plan.rows[0].bank_row(RPS)))
            mech.on_activate(bank, plan, now)
            now = mech.next_wake(now)
        # One row-0 activation in every bank before any bank repeats.
        assert seen[:BANKS] == [(b, 0) for b in range(BANKS)]
        assert seen[BANKS] == (0, 1)
        assert mech.refresh_acts == BANKS + 1

    def test_not_due_means_no_urgent_plan(self):
        mech = HiddenRowActivation(GEOMETRY, TIMING)
        assert mech.urgent_plan(mech.interval - 1) is None
        assert mech.next_wake(0) == mech.interval

    def test_foreign_plan_does_not_advance_schedule(self):
        mech = HiddenRowActivation(GEOMETRY, TIMING)
        mech.on_activate(0, plain_plan(0), mech.interval)
        assert mech.refresh_acts == 0
        assert mech.urgent_plan(mech.interval) is not None

    def test_disabled_refresh_idles(self):
        mech = HiddenRowActivation(GEOMETRY, TIMING, refresh_enabled=False)
        assert mech.urgent_plan(10 * mech.interval) is None
        assert mech.next_wake(0) == IDLE

    def test_state_round_trip(self):
        mech = HiddenRowActivation(GEOMETRY, TIMING)
        for _ in range(3):
            now = mech.next_wake(0)
            bank, plan = mech.urgent_plan(now)
            mech.on_activate(bank, plan, now)
        clone = round_trip(mech)
        # Both continue identically; the clone's memoized plan is its
        # own, so its activation still advances the schedule.
        for each in (mech, clone):
            now = each.next_wake(0)
            bank, plan = each.urgent_plan(now)
            assert bank == 3  # bank cursor
            each.on_activate(bank, plan, now)
        assert clone.refresh_acts == 4
        assert state_tree(clone) == state_tree(mech)


class TestHiraInvariant:
    def test_matching_acts_advance_coverage(self):
        inv = HiraRefreshInvariant(GEOMETRY, TIMING, enabled=True)
        checker = _RecordingChecker()
        interval = inv.interval
        for i in range(2 * BANKS):
            inv.on_command(checker, i * interval, act(i % BANKS, i // BANKS))
        inv.finalize(checker, 2 * BANKS * interval)
        assert checker.constraints == []

    def test_missing_coverage_flagged(self):
        inv = HiraRefreshInvariant(GEOMETRY, TIMING, enabled=True)
        checker = _RecordingChecker()
        end = (COVERAGE_SLACK_INTERVALS + 5) * inv.interval
        inv.finalize(checker, end)
        assert checker.constraints == ["hira-refresh-coverage"]

    def test_disabled_invariant_never_flags(self):
        inv = HiraRefreshInvariant(GEOMETRY, TIMING, enabled=False)
        checker = _RecordingChecker()
        inv.finalize(checker, 100 * inv.interval)
        assert checker.constraints == []


class TestCncPrac:
    def make(self, threshold=3):
        return CncPrac(GEOMETRY, TIMING, threshold=threshold, blast_radius=1)

    def hammer(self, mech, bank, row, times):
        for _ in range(times):
            mech.on_activate(bank, plain_plan(row), 0)

    def test_alert_queues_both_neighbours(self):
        mech = self.make()
        self.hammer(mech, 0, 5, 3)
        assert mech.alerts == 1
        assert list(mech.pending) == [(0, 4), (0, 6)]
        assert mech.counters.get((0, 5), 0) == 0

    def test_urgent_plan_serves_oldest_victim(self):
        mech = self.make()
        self.hammer(mech, 0, 5, 3)
        bank, plan = mech.urgent_plan(0)
        assert bank == 0
        assert plan.rows[0].bank_row(RPS) == 4
        assert plan.timings is None  # full-latency restore
        mech.on_activate(bank, plan, 1)
        assert mech.mitigations == 1
        assert list(mech.pending) == [(0, 6)]

    def test_demand_activation_retires_pending_victim(self):
        mech = self.make()
        self.hammer(mech, 0, 5, 3)
        mech.on_activate(0, plain_plan(6), 2)
        assert mech.mitigations == 1
        assert (0, 6) not in mech.pending

    def test_coalescing_counts_duplicate_victims(self):
        mech = self.make()
        self.hammer(mech, 0, 5, 3)   # pending: 4, 6
        self.hammer(mech, 0, 7, 3)   # victims 6, 8; 6 coalesces
        assert mech.coalesced == 1
        assert list(mech.pending) == [(0, 4), (0, 6), (0, 8)]

    def test_edge_rows_clip_blast_radius(self):
        mech = self.make()
        self.hammer(mech, 0, 0, 3)
        assert list(mech.pending) == [(0, 1)]

    def test_refresh_absorbs_pending_and_counters(self):
        mech = self.make()
        self.hammer(mech, 0, 5, 2)     # below threshold: counter only
        self.hammer(mech, 1, 5, 3)     # alert in bank 1: pending 4, 6
        mech.on_refresh(range(4, 6), 100)
        assert (0, 5) not in mech.counters
        assert (1, 4) not in mech.pending
        assert (1, 6) in mech.pending
        assert mech.ref_absorbed == 1

    def test_state_round_trip(self):
        mech = self.make()
        self.hammer(mech, 0, 5, 4)
        clone = round_trip(mech)
        for each in (mech, clone):
            self.hammer(each, 0, 5, 2)
            bank, plan = each.urgent_plan(0)
            each.on_activate(bank, plan, 1)
        assert clone.alerts == 2
        assert state_tree(clone) == state_tree(mech)


class TestPracInvariant:
    def make(self):
        return PracInvariant(GEOMETRY, TIMING, threshold=3, blast_radius=1)

    def test_timely_mitigation_passes(self):
        inv = self.make()
        checker = _RecordingChecker()
        for i in range(3):
            inv.on_command(checker, i, act(0, 5))
        inv.on_command(checker, 10, act(0, 4))
        inv.on_command(checker, 11, act(0, 6))
        inv.finalize(checker, 10 * TIMING.trefi)
        assert checker.constraints == []

    def test_missed_deadline_flagged_in_stream(self):
        inv = self.make()
        checker = _RecordingChecker()
        for i in range(3):
            inv.on_command(checker, i, act(0, 5))
        late = inv.deadline_cycles + 100
        inv.on_command(checker, late, act(3, 0))
        assert checker.constraints == ["cnc-prac-mitigation-deadline"]

    def test_missed_deadline_flagged_at_finalize(self):
        inv = self.make()
        checker = _RecordingChecker()
        for i in range(3):
            inv.on_command(checker, i, act(0, 5))
        inv.finalize(checker, inv.deadline_cycles + 100)
        # Both queued victims expired unmitigated.
        assert checker.constraints == ["cnc-prac-mitigation-deadline"] * 2

    def test_refresh_clears_pending(self):
        inv = self.make()
        checker = _RecordingChecker()
        for i in range(3):
            inv.on_command(checker, i, act(0, 5))
        # The scenario cursor starts at row 0; one REF covers one row
        # here (64 rows/bank), so walk it over the victims.
        for i in range(7):
            inv.on_command(checker, 10 + i, Command(CommandKind.REF))
        inv.finalize(checker, inv.deadline_cycles + 100)
        assert checker.constraints == []

    def test_state_round_trip(self):
        inv = self.make()
        checker = _RecordingChecker()
        for i in range(3):
            inv.on_command(checker, i, act(0, 5))
        clone = round_trip(inv)
        # Only the original mitigates in time: the clone flags both
        # victims of the alert it carried over.
        inv.on_command(checker, 10, act(0, 4))
        inv.on_command(checker, 11, act(0, 6))
        inv.finalize(checker, inv.deadline_cycles + 100)
        assert checker.constraints == []
        clone_checker = _RecordingChecker()
        clone.finalize(clone_checker, clone.deadline_cycles + 100)
        assert clone_checker.constraints == (
            ["cnc-prac-mitigation-deadline"] * 2
        )


class TestClrDram:
    def make(self, threshold=2):
        return ClrDram(GEOMETRY, TIMING, promote_threshold=threshold)

    def promote(self, mech, bank, row):
        for _ in range(mech.promote_threshold):
            plan = mech.plan_activation(bank, row, 0)
            assert plan.timings is None
            mech.on_activate(bank, plan, 0)

    def test_promotion_after_threshold_activations(self):
        mech = self.make()
        self.promote(mech, 0, 4)
        assert mech.promotions == 1
        assert mech.coupled[(0, 2)] == 4
        plan = mech.plan_activation(0, 4, 0)
        assert plan.timings is not None
        assert plan.timings.trcd < TIMING.trcd
        assert plan.timings.tras_full < TIMING.tras

    def test_fast_activations_counted_not_recounted(self):
        mech = self.make()
        self.promote(mech, 0, 4)
        plan = mech.plan_activation(0, 4, 0)
        mech.on_activate(0, plan, 0)
        assert mech.fast_acts == 1
        assert mech.counters == {}

    def test_partner_touch_demotes_the_pair(self):
        mech = self.make()
        self.promote(mech, 0, 4)
        mech.on_activate(0, plain_plan(5), 0)
        assert mech.demotions == 1
        assert (0, 2) not in mech.coupled
        assert mech.plan_activation(0, 4, 0).timings is None

    def test_partner_counters_cleared_on_promotion(self):
        mech = self.make()
        mech.on_activate(0, plain_plan(5), 0)   # partner accumulates
        self.promote(mech, 0, 4)
        assert (0, 5) not in mech.counters

    def test_pairs_are_per_bank(self):
        mech = self.make()
        self.promote(mech, 0, 4)
        assert mech.plan_activation(1, 4, 0).timings is None

    def test_state_round_trip(self):
        mech = self.make()
        self.promote(mech, 0, 4)
        mech.on_activate(0, plain_plan(9), 0)
        clone = round_trip(mech)
        for each in (mech, clone):
            assert each.plan_activation(0, 4, 0).timings is not None
            each.on_activate(0, plain_plan(5), 0)  # the partner demotes
            self.promote(each, 1, 9)
        assert clone.demotions == 1
        assert state_tree(clone) == state_tree(mech)


class TestClrInvariant:
    def make(self):
        return ClrInvariant(GEOMETRY, TIMING, threshold=2)

    def test_promoted_fast_act_accepted(self):
        inv = self.make()
        checker = _RecordingChecker()
        fast = fast_timings(TIMING)
        inv.on_command(checker, 0, act(0, 4))
        inv.on_command(checker, 1, act(0, 4))
        inv.on_command(checker, 2, act(0, 4, timings=fast))
        assert checker.constraints == []

    def test_uncoupled_fast_act_flagged(self):
        inv = self.make()
        checker = _RecordingChecker()
        inv.on_command(checker, 0, act(0, 6, timings=fast_timings(TIMING)))
        assert checker.constraints == ["clr-fast-act-uncoupled"]

    def test_wrong_override_timings_flagged(self):
        inv = self.make()
        checker = _RecordingChecker()
        inv.on_command(checker, 0, act(0, 4))
        inv.on_command(checker, 1, act(0, 4))
        wrong = fast_timings(TIMING)
        wrong = type(wrong)(
            trcd=wrong.trcd + 1,
            tras_full=wrong.tras_full,
            tras_early=wrong.tras_early,
            twr=wrong.twr,
        )
        inv.on_command(checker, 2, act(0, 4, timings=wrong))
        assert "clr-timing-override" in checker.constraints

    def test_demotion_mirrored(self):
        inv = self.make()
        checker = _RecordingChecker()
        inv.on_command(checker, 0, act(0, 4))
        inv.on_command(checker, 1, act(0, 4))
        inv.on_command(checker, 2, act(0, 5))   # partner: demote
        inv.on_command(checker, 3, act(0, 4, timings=fast_timings(TIMING)))
        assert checker.constraints == ["clr-fast-act-uncoupled"]


class TestTelemetryNamespace:
    def test_hira_stats_exported_under_mech_group(self):
        from repro import SystemConfig, run_workload

        result = run_workload(
            "libq",
            SystemConfig(cores=1, mechanism="hira", seed=1, telemetry=True),
            instructions=2_000,
            warmup_instructions=500,
        )
        hira = result.telemetry["mech"]["hira"]
        assert hira["hira_refresh_acts"]["value"] > 0

    def test_legacy_mechanisms_export_no_mech_group(self):
        from repro import SystemConfig, run_workload

        result = run_workload(
            "libq",
            SystemConfig(
                cores=1, mechanism="crow-cache", seed=1, telemetry=True
            ),
            instructions=2_000,
            warmup_instructions=500,
        )
        assert "mech" not in result.telemetry
