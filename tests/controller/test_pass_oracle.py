"""Property test: the one-scan scheduling pass matches its reference.

``ChannelController._serve_queue`` applies the scheduler's ``hit_cap``
inline while it scans the queue, and combines per-pass channel bounds
(:meth:`DramChannel.channel_bounds`) with memoized bank-slot bounds. The
reference here is the direct form of the same policy: rank the queue
with :meth:`Scheduler.ranked`, derive each request's next command, ask
:meth:`DramChannel.earliest_issue` (or ``earliest_act`` for a closed
slot) when it could issue, and stop after ``scheduler_window``
candidates that are not ready. Both must agree on the issued request
and command — or on issuing nothing — and on the returned earliest time.

Every registered mechanism is covered (``salp`` brings per-subarray
slots), under FCFS, FR-FCFS and FR-FCFS-Cap, on random read or write
queues over a few banks and rows, with per-bank hit streaks around the
cap and a random history of activations, column accesses, precharges
and refreshes behind them. A pass that issues nothing is checked twice:
fresh, and again at a later cycle through the reused pass record.
"""

import pytest
from hypothesis import given, strategies as st

from repro.controller import (
    ChannelController,
    FrFcfs,
    FrFcfsCap,
    MemRequest,
    RequestType,
    Scheduler,
)
from repro.controller.controller import IDLE
from repro.dram import AddressMapper, DramAddress, DramChannel, TimingParameters
from repro.dram.commands import Command, CommandKind
from repro.dram.geometry import DramGeometry
from repro.dram.timing import REF_COMMANDS_PER_WINDOW
from repro.errors import ConfigError
from repro.mech import mechanism_names
from repro.sim import System, SystemConfig
from repro.trace import workload

#: One channel of small banks (8 subarrays of 32 rows).
GEOMETRY = DramGeometry(channels=1, rows_per_bank=256, rows_per_subarray=32)
MAPPER = AddressMapper(GEOMETRY)
#: Rows in three subarrays: repeats give hits, the rest conflicts.
ROWS = (0, 1, 5, 33, 40, 200)
BANKS = 4


def build(name):
    config = SystemConfig(
        mechanism=name, geometry=GEOMETRY, salp_subarrays_per_bank=8
    )
    return System(config, [workload("mcf").trace(0)]).controllers[0]


def make_scheduler(policy, cap):
    if policy == "fcfs":
        return Scheduler()
    if policy == "fr-fcfs":
        return FrFcfs()
    return FrFcfsCap(cap)


def subarray_operand(channel, srow):
    return srow.subarray if channel.salp else None


def slot_of(channel, bank, srow):
    slot = channel.banks[bank]
    return slot.subarrays[srow.subarray] if channel.salp else slot


# ----------------------------------------------------------------------
# Driving a device history directly (no controller involved)
# ----------------------------------------------------------------------
def precharge(controller, bank, subarray, now):
    channel = controller.channel
    pre = Command(CommandKind.PRE, bank=bank, subarray=subarray)
    at = max(now, channel.earliest_issue(pre))
    result = channel.issue(pre, at)
    controller.mechanism.on_precharge(bank, result.precharge, at)
    return at


def refresh(controller, now):
    channel = controller.channel
    for bank, state in enumerate(channel.banks):
        slots = state.subarrays if channel.salp else {None: state}
        for subarray, slot in slots.items():
            if slot.is_open:
                now = precharge(controller, bank, subarray, now)
    ref = Command(CommandKind.REF)
    at = max(now, channel.earliest_issue(ref))
    cursor = channel.refresh_cursor
    channel.issue(ref, at)
    rows = max(1, GEOMETRY.rows_per_bank // REF_COMMANDS_PER_WINDOW)
    controller.mechanism.on_refresh(range(cursor, cursor + rows), at)
    return at


def apply_history(controller, steps, now=0):
    """Replay ``(gap, action, bank, row)`` steps from cycle ``now``;
    return the final cycle."""
    channel, mechanism = controller.channel, controller.mechanism
    for gap, action, bank, row in steps:
        now += gap
        if action == "ref":
            now = refresh(controller, now)
            continue
        srow = mechanism.service_row(bank, row)
        subarray = subarray_operand(channel, srow)
        if not slot_of(channel, bank, srow).is_open:
            now = max(now, channel.earliest_act(bank, srow.subarray))
            plan = mechanism.plan_activation(bank, row, now)
            channel.issue(
                Command(
                    plan.kind, bank=bank, rows=plan.rows, timings=plan.timings
                ),
                now,
            )
            mechanism.on_activate(bank, plan, now)
        elif action == "pre":
            now = precharge(controller, bank, subarray, now)
        else:
            kind = CommandKind.RD if action == "rd" else CommandKind.WR
            command = Command(kind, bank=bank, col=0, subarray=subarray)
            now = max(now, channel.earliest_issue(command))
            channel.issue(command, now)
    return now


# ----------------------------------------------------------------------
# The reference pass
# ----------------------------------------------------------------------
def next_command(controller, request, now):
    """``(command, earliest)`` for ``request``'s next DRAM command."""
    channel, mechanism = controller.channel, controller.mechanism
    bank, row = request.location.bank, request.location.row
    srow = mechanism.service_row(bank, row)
    open_rows = slot_of(channel, bank, srow).open_rows
    subarray = subarray_operand(channel, srow)
    if open_rows is None:
        plan = mechanism.plan_activation(bank, row, now)
        command = Command(
            plan.kind, bank=bank, rows=plan.rows, timings=plan.timings
        )
        return command, channel.earliest_act(bank, srow.subarray)
    if srow in open_rows:
        kind = (
            CommandKind.RD if request.type is RequestType.READ
            else CommandKind.WR
        )
        command = Command(
            kind, bank=bank, col=request.location.col, subarray=subarray
        )
    else:
        command = Command(CommandKind.PRE, bank=bank, subarray=subarray)
    return command, channel.earliest_issue(command)


def reference_pass(controller, queue, now):
    """``(request, command, earliest)`` the pass should choose."""
    channel, mechanism = controller.channel, controller.mechanism

    def is_hit(request):
        bank = request.location.bank
        srow = mechanism.service_row(bank, request.location.row)
        open_rows = slot_of(channel, bank, srow).open_rows
        return open_rows is not None and srow in open_rows

    def streak(request):
        return controller.hit_streak[request.location.bank]

    waiting = []
    for request in controller.scheduler.ranked(queue, is_hit, streak):
        command, earliest = next_command(controller, request, now)
        if earliest <= now:
            return request, command, now
        waiting.append(earliest)
        if len(waiting) >= controller.config.scheduler_window:
            break
    return None, None, min(waiting, default=IDLE)


def controller_pass(controller, queue, now):
    """Run the controller's pass; report what it chose, as the reference."""
    chosen = []
    issue = controller._issue_candidate

    def recording(request, *args):
        chosen.append(request)
        issue(request, *args)

    controller._issue_candidate = recording
    commands = []

    def log(cycle, command):
        commands.append(command)

    controller.channel.attach(log)
    try:
        issued, earliest = controller._serve_queue(queue, now)
    finally:
        controller.channel.detach(log)
        del controller._issue_candidate
    assert issued == bool(chosen) == bool(commands)
    if not issued:
        return None, None, earliest
    assert len(chosen) == len(commands) == 1
    return chosen[0], commands[0], earliest


def check_pass(controller, queue, now):
    expected = reference_pass(controller, queue, now)
    assert controller_pass(controller, queue, now) == expected
    return expected[0] is not None


def enqueue_all(controller, specs, is_write, now):
    kind = RequestType.WRITE if is_write else RequestType.READ
    for bank, row, col in specs:
        address = MAPPER.encode(DramAddress(0, 0, bank, row, col))
        request = MemRequest(kind, address, MAPPER.decode(address))
        assert controller.enqueue(request, now)
    return controller.write_q if is_write else controller.read_q


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
history_steps = st.lists(
    st.tuples(
        st.integers(0, 30),
        st.sampled_from(("act", "act", "rd", "wr", "pre", "ref")),
        st.integers(0, BANKS - 1),
        st.sampled_from(ROWS),
    ),
    max_size=24,
)
request_specs = st.lists(
    st.tuples(
        st.integers(0, BANKS - 1),
        st.sampled_from(ROWS),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=20,
)


@pytest.mark.parametrize("name", mechanism_names())
@given(
    policy=st.sampled_from(("fcfs", "fr-fcfs", "cap")),
    cap=st.integers(1, 4),
    history=history_steps,
    specs=request_specs,
    is_write=st.booleans(),
    streaks=st.lists(
        st.integers(0, 5),
        min_size=GEOMETRY.banks_per_channel,
        max_size=GEOMETRY.banks_per_channel,
    ),
    wait=st.integers(0, 60),
    later=st.integers(1, 120),
)
def test_pass_matches_reference(
    name, policy, cap, history, specs, is_write, streaks, wait, later
):
    controller = build(name)
    controller.scheduler = make_scheduler(policy, cap)
    now = apply_history(controller, history) + wait
    controller.hit_streak[:] = streaks
    queue = enqueue_all(controller, specs, is_write, now)
    if not check_pass(controller, queue, now):
        # Same version: the next tick scans the kept pass record.
        check_pass(controller, queue, now + later)


@pytest.mark.parametrize("name", ["baseline", "salp"])
@pytest.mark.parametrize("conflicts", [11, 12])
def test_window_truncation(name, conflicts):
    """A ready activation behind ``conflicts`` waiting PREs (FCFS).

    Within the window (12) it issues; beyond it the pass gives up and
    returns the earliest PRE time.
    """
    controller = build(name)
    controller.scheduler = Scheduler()
    now = apply_history(controller, [(0, "act", 0, 0)])
    # Past tRRD, before the open row's tRAS: the PREs must wait.
    now += controller.timing.trrd
    pre_at = controller.channel.earliest_issue(
        Command(
            CommandKind.PRE,
            bank=0,
            subarray=0 if controller.channel.salp else None,
        )
    )
    assert pre_at > now
    specs = [(0, 1 + i % 4, i % 8) for i in range(conflicts)] + [(1, 0, 0)]
    queue = enqueue_all(controller, specs, False, now)
    request, command, earliest = reference_pass(controller, queue, now)
    assert (request is queue[-1]) == (conflicts < 12)
    assert earliest == (now if request is not None else pre_at)
    check_pass(controller, queue, now)


@pytest.mark.parametrize(
    "name,opened,specs",
    [
        # One open slot, two command classes: the conflict's PRE waits
        # for tRAS, the later hit's RD is ready at tRCD.
        ("baseline", [(0, "act", 0, 0)], [(0, 1, 0), (0, 0, 1)]),
        # One bank, two open SALP slots: the older activation's hit is
        # ready, the newer one's is not.
        ("salp", [(0, "act", 0, 0), (0, "act", 0, 33)], [(0, 33, 0), (0, 0, 1)]),
    ],
    ids=["class", "subarray"],
)
def test_readiness_memo_keeps_classes_and_slots_apart(name, opened, specs):
    """FCFS puts the waiting candidate first; the ready one must issue."""
    controller = build(name)
    controller.scheduler = Scheduler()
    apply_history(controller, opened)
    srow = controller.mechanism.service_row(0, opened[0][3])
    now = slot_of(controller.channel, 0, srow).earliest_col()
    queue = enqueue_all(controller, specs, False, now)
    assert reference_pass(controller, queue, now)[0] is queue[1]
    check_pass(controller, queue, now)


def test_scheduler_overriding_ranked_is_rejected():
    class Newest(Scheduler):
        def ranked(self, requests, is_row_hit, bank_hit_streak):
            return reversed(requests)

    channel = DramChannel(GEOMETRY, TimingParameters.lpddr4())
    with pytest.raises(ConfigError, match="ranked"):
        ChannelController(channel, scheduler=Newest())
