"""Property tests on the DRAM timing engine.

Drives the device with randomly-generated *legal* command sequences (via
``earliest_issue``) and asserts the global invariants that make the
substrate trustworthy: issuing at the earliest legal time never violates
timing, bank state stays consistent, and earliest-issue is monotone.
"""

from hypothesis import given, settings, strategies as st

from repro.dram import CrowTimings, DramChannel, DramGeometry, TimingParameters
from repro.dram.commands import ActTimings, Command, CommandKind, RowId

GEO = DramGeometry(rows_per_bank=4096, channels=1)
TIMING = TimingParameters.lpddr4()
CROW = CrowTimings.from_factors(TIMING)

# An intent is (action, bank, row, col) — translated into whichever command
# is legal in the current bank state.
intents = st.lists(
    st.tuples(
        st.sampled_from(["act", "act_t", "act_c", "rd", "wr", "pre", "ref"]),
        st.integers(0, GEO.banks_per_rank - 1),
        st.integers(0, GEO.rows_per_bank - 1),
        st.integers(0, GEO.columns_per_row - 1),
    ),
    min_size=1,
    max_size=60,
)


def act_timings(kind: CommandKind) -> ActTimings | None:
    if kind is CommandKind.ACT:
        return None
    if kind is CommandKind.ACT_T:
        return ActTimings(
            trcd=CROW.trcd_act_t_full,
            tras_full=CROW.tras_act_t_full,
            tras_early=CROW.tras_act_t_early,
            twr=CROW.twr_mra_early,
            twr_full=CROW.twr_mra_full,
        )
    return ActTimings(
        trcd=CROW.trcd_act_c,
        tras_full=CROW.tras_act_c_full,
        tras_early=CROW.tras_act_c_early,
        twr=CROW.twr_mra_early,
        twr_full=CROW.twr_mra_full,
    )


def build_command(channel, action, bank, row, col) -> Command | None:
    """Translate an intent into a command legal for the current state."""
    bank_state = channel.banks[bank]
    if action == "ref":
        if any(b.is_open for b in channel.banks):
            return None
        return Command(CommandKind.REF)
    if action in ("act", "act_t", "act_c"):
        if bank_state.is_open:
            return None
        regular = RowId.regular(row, GEO.rows_per_subarray)
        if action == "act":
            return Command(CommandKind.ACT, bank=bank, rows=(regular,))
        kind = CommandKind.ACT_T if action == "act_t" else CommandKind.ACT_C
        return Command(
            kind,
            bank=bank,
            rows=(regular, RowId.copy(regular.subarray, 0)),
            timings=act_timings(kind),
        )
    if not bank_state.is_open:
        return None
    if action == "pre":
        return Command(CommandKind.PRE, bank=bank)
    kind = CommandKind.RD if action == "rd" else CommandKind.WR
    return Command(kind, bank=bank, col=col)


class TestLegalSequences:
    @given(sequence=intents)
    @settings(max_examples=60, deadline=None)
    def test_issue_at_earliest_never_violates(self, sequence):
        """For any intent sequence: issuing each realizable command at its
        earliest legal time succeeds and advances device state."""
        channel = DramChannel(GEO, TIMING)
        now = 0
        for action, bank, row, col in sequence:
            command = build_command(channel, action, bank, row, col)
            if command is None:
                continue
            earliest = channel.earliest_issue(command)
            assert earliest >= 0
            now = max(now, earliest)
            channel.issue(command, now)   # must not raise
            now += 1

    @given(sequence=intents)
    @settings(max_examples=40, deadline=None)
    def test_earliest_is_truly_earliest(self, sequence):
        """Issuing one cycle before the reported earliest must fail."""
        from repro.errors import TimingViolationError

        channel = DramChannel(GEO, TIMING)
        now = 0
        checked = 0
        for action, bank, row, col in sequence:
            command = build_command(channel, action, bank, row, col)
            if command is None:
                continue
            earliest = channel.earliest_issue(command)
            if earliest > now and checked < 5:
                checked += 1
                try:
                    channel.issue(command, earliest - 1)
                    assert False, "issue before earliest must raise"
                except TimingViolationError:
                    pass
            now = max(now, earliest)
            channel.issue(command, now)
            now += 1

    @given(sequence=intents)
    @settings(max_examples=40, deadline=None)
    def test_state_consistency(self, sequence):
        """Open-row bookkeeping matches the commands issued."""
        channel = DramChannel(GEO, TIMING)
        shadow_open: dict[int, tuple | None] = {
            b: None for b in range(GEO.banks_per_rank)
        }
        now = 0
        for action, bank, row, col in sequence:
            command = build_command(channel, action, bank, row, col)
            if command is None:
                continue
            now = max(now, channel.earliest_issue(command))
            channel.issue(command, now)
            now += 1
            if command.kind.is_activation:
                shadow_open[command.bank] = command.rows
            elif command.kind is CommandKind.PRE:
                shadow_open[command.bank] = None
        for bank_index, rows in shadow_open.items():
            assert channel.banks[bank_index].open_rows == rows

    @given(sequence=intents)
    @settings(max_examples=30, deadline=None)
    def test_counters_match_issues(self, sequence):
        channel = DramChannel(GEO, TIMING)
        issued = {kind: 0 for kind in CommandKind}
        now = 0
        for action, bank, row, col in sequence:
            command = build_command(channel, action, bank, row, col)
            if command is None:
                continue
            now = max(now, channel.earliest_issue(command))
            channel.issue(command, now)
            issued[command.kind] += 1
            now += 1
        assert channel.counts == issued
