"""Property test: the memoized channel bounds match a fresh computation.

:meth:`DramChannel.channel_bounds` keeps its last answer until
``version`` moves. The reference here is a pickled copy of the channel
whose memo is dropped, so it computes its bounds from scratch. Random
command histories — ACT, ACT-c, ACT-t, RD, WR, PRE and REF, some issued
too early and rejected, with pickled saves and restores in between (the
memo travels with the state it describes) — run on conventional and
SALP banks, and every accepted command, rejection and restore is
followed by a comparison.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.dram import CrowTimings, DramChannel, DramGeometry, TimingParameters
from repro.dram.commands import ActTimings, Command, CommandKind, RowId
from repro.errors import ProtocolError, TimingViolationError

#: One channel of small banks (8 subarrays of 32 rows, 8 copy rows each).
GEOMETRY = DramGeometry(channels=1, rows_per_bank=256, rows_per_subarray=32)
TIMING = TimingParameters.lpddr4()
CROW = CrowTimings.from_factors(TIMING)
CROW_TIMINGS = ActTimings(
    trcd=CROW.trcd_act_t_full,
    tras_full=CROW.tras_act_t_full,
    tras_early=CROW.tras_act_t_early,
    twr=CROW.twr_mra_early,
    twr_full=CROW.twr_mra_full,
)
BANKS = 3
SUBARRAYS = 3


def make_channel(salp):
    return DramChannel(GEOMETRY, TIMING, salp_subarrays=8 if salp else None)


def reference_bounds(channel):
    fresh = pickle.loads(pickle.dumps(channel))
    fresh._bounds_version = -1  # drop the memo
    return fresh.channel_bounds()


def check(channel):
    assert channel.channel_bounds() == reference_bounds(channel)


def command_for(channel, action, bank, subarray):
    """The command ``action`` names on ``(bank, subarray)``."""
    operand = subarray if channel.salp else None
    regular = RowId.regular(subarray * GEOMETRY.rows_per_subarray + 1,
                            GEOMETRY.rows_per_subarray)
    if action == "act":
        return Command(CommandKind.ACT, bank=bank, rows=(regular,))
    if action in ("act-c", "act-t"):
        kind = CommandKind.ACT_C if action == "act-c" else CommandKind.ACT_T
        return Command(kind, bank=bank, rows=(regular, RowId.copy(subarray, 0)),
                       timings=CROW_TIMINGS)
    if action == "pre":
        return Command(CommandKind.PRE, bank=bank, subarray=operand)
    kind = CommandKind.RD if action == "rd" else CommandKind.WR
    return Command(kind, bank=bank, col=0, subarray=operand)


def precharge_all(channel, salp, now):
    """Close every open slot (REF needs all banks precharged)."""
    for bank, state in enumerate(channel.banks):
        slots = state.subarrays if salp else {None: state}
        for subarray, slot in slots.items():
            if slot.is_open:
                pre = Command(CommandKind.PRE, bank=bank, subarray=subarray)
                now = max(now, channel.earliest_issue(pre))
                channel.issue(pre, now)
                check(channel)
    return now


steps = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.sampled_from(
            ("act", "act-c", "act-t", "rd", "rd", "wr", "wr", "pre", "ref",
             "early", "save", "restore")
        ),
        st.integers(0, BANKS - 1),
        st.integers(0, SUBARRAYS - 1),
    ),
    max_size=40,
)


@pytest.mark.parametrize("salp", [False, True], ids=["conventional", "salp"])
@given(history=steps)
def test_bounds_match_fresh_computation(salp, history):
    channel = make_channel(salp)
    now = 0
    saved = pickle.dumps(channel)
    check(channel)
    for gap, action, bank, subarray in history:
        now += gap
        if action == "save":
            saved = pickle.dumps(channel)
            continue
        if action == "restore":
            channel = pickle.loads(saved)
            check(channel)
            continue
        if action == "ref":
            now = precharge_all(channel, salp, now)
            command = Command(CommandKind.REF)
        elif action == "early":
            # The command a RD/WR/ACT probe would pick, one cycle early.
            command = None
            for candidate in ("rd", "act", "wr"):
                probe = command_for(channel, candidate, bank, subarray)
                try:
                    earliest = channel.earliest_issue(probe)
                except ProtocolError:
                    continue
                if earliest > 0:
                    command = probe
                    break
            if command is None:
                continue
            before = channel.channel_bounds()
            with pytest.raises(TimingViolationError):
                channel.issue(command, earliest - 1)
            assert channel.channel_bounds() == before
            check(channel)
            continue
        else:
            command = command_for(channel, action, bank, subarray)
        try:
            earliest = channel.earliest_issue(command)
        except ProtocolError:
            continue
        now = max(now, earliest)
        channel.issue(command, now)
        check(channel)
