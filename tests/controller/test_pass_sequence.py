"""Property test: the scheduling pass stays exact across a run.

The controller keeps per-request scheduling state (each queued request's
service row, bank slot, command class and slot bound), re-resolved only
when the channel reports that the request's bank changed, and keeps the
record of a pass that issued nothing for the following ticks.
``test_pass_oracle`` checks one pass over a freshly enqueued queue, so
it cannot see stale kept state. Here one controller lives through a
random sequence of steps:

* enqueues,
* controller ticks,
* commands issued on the channel directly, behind the controller's back
  (ACT, RD, WR, PRE, REF),
* row remaps: a CROW-ref runtime remap (an ``ACT-c`` on the next
  activation) and RowHammer detections (victim copies the next ticks
  issue as urgent plans),
* a pickled snapshot restored in place of the live controller (its
  kept pass record and request memos travel with it),

and after every step the controller's pass must choose what
:func:`reference_pass` derives from scratch.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.controller.mechanism import ActivationPlan
from repro.core.ref import CrowRef
from repro.core.rowhammer import RowHammerMitigation
from repro.dram.commands import CommandKind, RowId
from repro.mech import mechanism_names

from tests.controller.test_pass_oracle import (
    BANKS,
    ROWS,
    apply_history,
    build,
    check_pass,
    enqueue_all,
    make_scheduler,
    precharge,
    slot_of,
    subarray_operand,
)


def check(controller, now):
    queue = controller._active_queue()
    if queue:
        check_pass(controller, queue, now)


def remap(controller, bank, row, now):
    """Start a remap of ``row`` the way the mechanism's own hooks do."""
    mechanism = controller.mechanism
    if isinstance(mechanism, CrowRef):
        if mechanism.request_remap(bank, row):
            # The next activation copies the row (ACT-c) and remaps it.
            channel = controller.channel
            srow = mechanism.service_row(bank, row)
            if slot_of(channel, bank, srow).is_open:
                now = precharge(
                    controller, bank, subarray_operand(channel, srow), now
                )
            now = apply_history(controller, [(0, "act", bank, row)], now)
        return now
    if isinstance(mechanism, RowHammerMitigation):
        # Hammer ``row`` up to the threshold: its neighbours become
        # victims that the controller copies away on its next ticks.
        plan = ActivationPlan(
            kind=CommandKind.ACT,
            rows=(RowId.regular(row, mechanism.geometry.rows_per_subarray),),
        )
        seen = mechanism.counters.get((bank, row), 0)
        for _ in range(mechanism.hammer_threshold - seen):
            mechanism.on_activate(bank, plan, now)
    return now


banks = st.integers(0, BANKS - 1)
rows = st.sampled_from(ROWS)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("enqueue"), banks, rows, st.integers(0, 7), st.booleans()
        ),
        st.tuples(st.just("tick"), st.integers(0, 30)),
        st.tuples(
            st.just("issue"),
            st.integers(0, 30),
            st.sampled_from(("act", "rd", "wr", "pre", "ref")),
            banks,
            rows,
        ),
        st.tuples(st.just("remap"), banks, rows),
        st.tuples(st.just("save")),
        st.tuples(st.just("restore")),
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("name", mechanism_names())
@given(
    policy=st.sampled_from(("fcfs", "fr-fcfs", "cap")),
    cap=st.integers(1, 4),
    steps=steps,
)
def test_pass_matches_reference_after_every_step(name, policy, cap, steps):
    controller = build(name)
    controller.scheduler = make_scheduler(policy, cap)
    now = 0
    snapshot = pickle.dumps(controller)
    for step in steps:
        action = step[0]
        if action == "enqueue":
            # At most 40 steps: the 64-entry queues never fill.
            _, bank, row, col, is_write = step
            enqueue_all(controller, [(bank, row, col)], is_write, now)
        elif action == "tick":
            now += step[1]
            controller.tick(now)
        elif action == "issue":
            now = apply_history(controller, [step[1:]], now)
        elif action == "remap":
            now = remap(controller, step[1], step[2], now)
        elif action == "save":
            snapshot = pickle.dumps(controller)
        else:
            controller = pickle.loads(snapshot)
        check(controller, now)
