"""Tests for the incremental scheduling pass of ChannelController.

A queue pass that issued nothing is reused by later ticks until an
enqueue, a dequeue or a command issue invalidates it, and activation
plans are requested only for the activation that issues. These tests
pin the invalidation rules, the plan-call count, and that a pickled
controller, kept pass record included, continues exactly as the
original does.
"""

import pickle

from repro.controller import ChannelController, MemRequest, RequestType
from repro.controller.scheduler import Scheduler
from repro.dram import DramChannel
from repro.sim import System, SystemConfig
from repro.snapshot import state_tree
from repro.trace import workload

from tests.controller.test_controller import (
    GEO,
    MAPPER,
    TIMING,
    channel0_address,
    make_controller,
    make_request,
    run_until_drained,
)


class CommandLog(list):
    """A picklable channel observer: a list of ``(cycle, command)``."""

    def __call__(self, cycle, command):
        self.append((cycle, command))


def record(channel):
    log = CommandLog()
    channel.attach(log)
    return log


def issued(log, start=0):
    return [
        (cycle, command.kind.name, command.bank)
        for cycle, command in log[start:]
    ]


def run_ticks(controller, now, steps):
    for _ in range(steps):
        now = max(controller.tick(now), now + 1)
    return now


def open_row_then_wait(controller, channel):
    """Open row 7 of bank 0, then queue a conflicting read to row 9.

    Returns the cycle after a tick that issued nothing: the conflict's
    PRE is not legal until the row's tRAS has elapsed.
    """
    controller.enqueue(make_request(channel0_address(row=7)), 0)
    now = run_until_drained(controller)
    controller.enqueue(make_request(channel0_address(row=9)), now)
    before = sum(channel.counts.values())
    wake = controller.tick(now)
    assert sum(channel.counts.values()) == before, "expected a waiting tick"
    assert wake > now + 1
    return now, wake


class TestPassReuse:
    def test_hit_enqueued_between_waiting_ticks_ranks_first(self):
        controller, channel = make_controller(row_timeout_ns=None)
        log = record(channel)
        now, wake = open_row_then_wait(controller, channel)
        assert controller.tick(now + 1) == wake  # still waiting, reused
        start = len(log)
        hit = make_request(channel0_address(row=7, col=3))
        controller.enqueue(hit, now + 2)
        # At the PRE's earliest cycle the new row hit is also ready;
        # FR-FCFS-Cap must serve it before closing the row.
        controller.tick(wake)
        assert issued(log, start) == [(wake, "RD", 0)]
        run_until_drained(controller)
        assert [k for _, k, _ in issued(log, start)] == [
            "RD", "PRE", "ACT", "RD",
        ]

    def test_snapshot_mid_wait_restores_same_commands(self):
        controller, channel = make_controller()
        log = record(channel)
        now, _ = open_row_then_wait(controller, channel)
        snapshot = pickle.dumps((controller, log))
        start = len(log)
        run_ticks(controller, now + 1, 40)
        expected = issued(log, start)
        assert [k for _, k, _ in expected][:3] == ["PRE", "ACT", "RD"]

        # The copy carries the kept pass record, still aliasing its own
        # queue, and continues exactly as the original did; the
        # original's continuation does not leak into a second copy.
        for _ in range(2):
            restored, restored_log = pickle.loads(snapshot)
            assert restored._idle_pass is not None
            assert restored._idle_pass[1] is restored.read_q
            assert restored.channel._observers == (restored_log,)
            start = len(restored_log)
            run_ticks(restored, now + 1, 40)
            assert issued(restored_log, start) == expected

    def test_restore_reopens_row_timeout(self):
        controller, channel = make_controller(row_timeout_ns=75.0)
        log = record(channel)
        controller.enqueue(make_request(channel0_address(row=7)), 0)
        now = run_until_drained(controller)
        snapshot = pickle.dumps((controller, log))
        start = len(log)
        run_ticks(controller, now, 5)
        expected = issued(log, start)
        assert [k for _, k, _ in expected] == ["PRE"]
        # The continuation ended on a scan that found every bank closed;
        # in the restored copy the row is open again and must still
        # close.
        restored, restored_log = pickle.loads(snapshot)
        assert restored.channel.banks[0].is_open
        start = len(restored_log)
        run_ticks(restored, now, 5)
        assert issued(restored_log, start) == expected

    def test_fcfs_scheduler_without_hit_probe(self):
        channel = DramChannel(GEO, TIMING)
        controller = ChannelController(
            channel, scheduler=Scheduler(), refresh_enabled=False
        )
        log = record(channel)
        finished = []

        def done(request, finish):
            finished.append(request.location.row)

        for row in (7, 9, 7):
            controller.enqueue(
                MemRequest(
                    RequestType.READ,
                    channel0_address(row=row),
                    MAPPER.decode(channel0_address(row=row)),
                    callback=done,
                ),
                0,
            )
        run_until_drained(controller)
        # FCFS ranks by arrival only, and the controller issues the
        # first *ready* candidate: the row-9 read's PRE waits for tRAS,
        # so the later row-7 read is served from the open row meanwhile.
        assert finished == [7, 7, 9]
        assert [k for _, k, _ in issued(log)] == [
            "ACT", "RD", "RD", "PRE", "ACT", "RD",
        ]


class TestPlanOnlyWhatIssues:
    def test_plan_calls_equal_activations_under_crow_cache(self):
        system = System(
            SystemConfig(mechanism="crow-cache"), [workload("mcf").trace(0)]
        )
        counts = {"plan": 0, "activate": 0}
        for controller in system.controllers:
            mechanism = controller.mechanism
            plan, activate = mechanism.plan_activation, mechanism.on_activate

            def counted_plan(*args, _plan=plan):
                counts["plan"] += 1
                return _plan(*args)

            def counted_activate(*args, _activate=activate):
                counts["activate"] += 1
                return _activate(*args)

            mechanism.plan_activation = counted_plan
            mechanism.on_activate = counted_activate
        system.run(3_000, 500, prewarm_accesses=2_000)
        assert counts["plan"] > 0
        assert counts["plan"] == counts["activate"]


class TestRetiredStateKeys:
    def test_state_carrying_retired_keys_loads_unchanged(self):
        # ``refresh_backlog`` (controller) and ``issued_at`` (request)
        # were write-only fields: no snapshot carries them any more,
        # and a pickled controller's state equals the original's.
        controller, channel = make_controller()
        open_row_then_wait(controller, channel)
        state = state_tree(controller)
        assert state["read_q"]
        assert "refresh_backlog" not in state
        assert all("issued_at" not in r for r in state["read_q"])
        restored = pickle.loads(pickle.dumps(controller))
        assert state_tree(restored) == state
