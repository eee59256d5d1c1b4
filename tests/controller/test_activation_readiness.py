"""Invariant behind plan-free activation readiness.

The controller ranks closed-bank candidates by
``DramChannel.earliest_act(bank, service_row.subarray)`` and asks the
mechanism for an :class:`ActivationPlan` only for the activation it
issues. That is exact only if, for every registered mechanism and every
reachable bank/channel state:

* ``plan.rows[0].subarray`` is the service row's subarray (the SALP slot
  the probe looked at), and
* ``earliest_act`` equals ``earliest_issue`` of the planned command,
  whatever kind and timings the plan chose.

Each case builds one channel and its mechanism through the plugin
registry on a small geometry, then drives them with a seeded random mix
of activations, early and late precharges and refreshes — filling and
evicting CROW-table entries, partially restoring rows, and crossing
tRRD/tFAW windows and refresh blackouts — and checks both properties
before every activation.
"""

import random

import pytest

from repro.dram.commands import Command, CommandKind
from repro.dram.geometry import DramGeometry
from repro.dram.timing import REF_COMMANDS_PER_WINDOW
from repro.mech import mechanism_names
from repro.sim import System, SystemConfig
from repro.trace import workload

#: Small banks (8 subarrays of 32 rows) so a few dozen hot rows fill
#: and evict every CROW-table set.
GEOMETRY = DramGeometry(channels=1, rows_per_bank=256, rows_per_subarray=32)
#: Every registered mechanism (``salp`` brings the per-subarray slots),
#: plus CROW-cache's restore-before-evict protocol, whose plans activate
#: a victim pair instead of the demand row.
CASES = [(name, {}) for name in mechanism_names()] + [
    ("crow-cache", {"evict_partial": "restore"}),
]
STEPS = 1_500


def build(name, overrides):
    config = SystemConfig(
        mechanism=name,
        geometry=GEOMETRY,
        salp_subarrays_per_bank=8,
        **overrides,
    )
    controller = System(config, [workload("mcf").trace(0)]).controllers[0]
    return controller.channel, controller.mechanism


def slot_of(channel, bank, subarray):
    slot = channel.banks[bank]
    return slot.subarrays[subarray] if channel.salp else slot


def precharge(channel, mechanism, bank, subarray, now, rng):
    pre = Command(
        CommandKind.PRE, bank=bank, subarray=subarray if channel.salp else None
    )
    # Sometimes right at the early-termination point (a partial
    # restore), sometimes later.
    at = max(now, channel.earliest_issue(pre)) + rng.choice((0, 0, 40))
    result = channel.issue(pre, at)
    mechanism.on_precharge(bank, result.precharge, at)
    return at


def refresh(channel, mechanism, geometry, now, rng):
    for bank, state in enumerate(channel.banks):
        slots = state.subarrays if channel.salp else {0: state}
        for subarray, slot in slots.items():
            if slot.is_open:
                now = precharge(channel, mechanism, bank, subarray, now, rng)
    ref = Command(CommandKind.REF)
    at = max(now, channel.earliest_issue(ref))
    cursor = channel.refresh_cursor
    channel.issue(ref, at)
    rows_per_ref = max(1, geometry.rows_per_bank // REF_COMMANDS_PER_WINDOW)
    mechanism.on_refresh(range(cursor, cursor + rows_per_ref), at)
    return at


@pytest.mark.parametrize(
    "name,overrides",
    CASES,
    ids=[name + "".join(f"-{v}" for v in o.values()) for name, o in CASES],
)
def test_earliest_act_matches_planned_command(name, overrides):
    channel, mechanism = build(name, overrides)
    geometry = channel.geometry
    rng = random.Random(name + repr(sorted(overrides.items())))
    # Hot rows in two subarrays: repeats hit the CROW-table, the rest
    # compete for its ways.
    hot = range(2 * geometry.rows_per_subarray)
    now = 0
    checked = 0
    for _ in range(STEPS):
        now += rng.randrange(0, 24)
        if rng.random() < 0.02:
            now = refresh(channel, mechanism, geometry, now, rng)
            continue
        bank = rng.randrange(geometry.banks_per_channel)
        row = rng.choice(hot)
        srow = mechanism.service_row(bank, row)
        if slot_of(channel, bank, srow.subarray).is_open:
            if rng.random() < 0.6:
                now = precharge(
                    channel, mechanism, bank, srow.subarray, now, rng
                )
            continue
        plan = mechanism.plan_activation(bank, row, now)
        assert plan.rows[0].subarray == srow.subarray, (bank, row, plan)
        earliest = channel.earliest_act(bank, srow.subarray)
        command = Command(
            plan.kind, bank=bank, rows=plan.rows, timings=plan.timings
        )
        assert channel.earliest_issue(command) == earliest, (bank, row, plan)
        checked += 1
        if rng.random() < 0.7:
            # Issue the way the controller does: planned at issue time.
            now = max(now, earliest)
            plan = mechanism.plan_activation(bank, row, now)
            channel.issue(
                Command(
                    plan.kind, bank=bank, rows=plan.rows, timings=plan.timings
                ),
                now,
            )
            mechanism.on_activate(bank, plan, now)
            if rng.random() < 0.5:  # close it again soon: partial restores
                now = precharge(
                    channel, mechanism, bank, srow.subarray, now, rng
                )
    assert checked > STEPS // 4
