"""Property-based fuzzing of the simulator against the conformance oracle.

Three properties:

* every randomized scenario (workload mix × mechanism × density ×
  refresh window × CROW knobs) simulates without a single protocol
  violation in strict mode;
* the device's own ``earliest_issue`` scheduling and the independent
  shadow checker agree on randomly-generated legal command streams
  (a differential test between the two implementations of the spec);
* random timing-parameter sets either construct or raise ``ConfigError``
  — never an arbitrary exception, and never an impossible constraint
  set accepted.

Scenarios are built componentwise with ``st.builds`` so hypothesis
shrinks a failing case to a minimal one. Each failure prints (via
``note``) the exact ``python -m repro check --scenario`` command that
reproduces it outside pytest, plus hypothesis' own ``@reproduce_failure``
blob under the CI profile (see tests/conftest.py).
"""

import random

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.check import ProtocolChecker
from repro.check.scenarios import SCENARIO_WORKLOADS, Scenario, run_scenario
from repro.dram.commands import Command, CommandKind, RowId
from repro.dram.device import DramChannel
from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParameters
from repro.errors import ConfigError
from repro.sim.config import MECHANISMS

scenarios = st.builds(
    Scenario,
    workloads=st.lists(
        st.sampled_from(SCENARIO_WORKLOADS), min_size=1, max_size=2
    ).map(tuple),
    mechanism=st.sampled_from(MECHANISMS),
    density_gbit=st.sampled_from((8, 16)),
    refresh_window_ms=st.sampled_from((32.0, 64.0)),
    refresh_enabled=st.booleans(),
    copy_rows=st.sampled_from((2, 8)),
    evict_partial=st.sampled_from(("bypass", "restore")),
    allow_partial_restore=st.booleans(),
    reduced_twr=st.booleans(),
    instructions=st.integers(500, 2000),
    warmup_instructions=st.integers(0, 300),
    seed=st.integers(1, 10_000),
)


@given(scenario=scenarios)
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_randomized_scenarios_are_conformant(scenario):
    note(
        "reproduce with: python -m repro check "
        f"--scenario '{scenario.to_json()}'"
    )
    result, report = run_scenario(scenario, mode="strict")
    assert report.ok
    assert result.cycles > 0


@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(40, 120))
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_device_and_checker_agree_on_legal_streams(seed, steps):
    """Differential test: streams the device schedules pass the oracle.

    A random walk picks commands, legalizes them against the device's
    *state* (open/closed banks), and issues each at the device's own
    ``earliest_issue`` plus jitter. The device and the checker implement
    the timing spec independently — any stream the device accepts that
    the checker flags (strict mode raises here) is a bug in one of them.
    """
    geometry = DramGeometry(channels=1, rows_per_bank=8192)
    timing = TimingParameters.lpddr4()
    channel = DramChannel(geometry, timing)
    checker = ProtocolChecker(
        geometry, timing, expect_refresh=False, mode="strict"
    )
    channel.attach(checker.observe)
    rng = random.Random(seed)
    banks = geometry.banks_per_channel
    rows = geometry.rows_per_subarray

    for _ in range(steps):
        action = rng.choice(("act", "rd", "rd", "wr", "pre", "ref"))
        bank = rng.randrange(banks)
        is_open = channel.open_rows(bank) is not None
        if action == "ref":
            open_bank = next(
                (b for b in range(banks) if channel.open_rows(b) is not None),
                None,
            )
            if open_bank is not None:
                action, bank, is_open = "pre", open_bank, True
        if action in ("rd", "wr", "pre") and not is_open:
            action = "act"
        elif action == "act" and is_open:
            action = rng.choice(("rd", "wr", "pre"))
        if action == "act":
            command = Command(
                kind=CommandKind.ACT,
                bank=bank,
                rows=(RowId.regular(rng.randrange(rows), rows),),
            )
        elif action == "rd":
            command = Command(kind=CommandKind.RD, bank=bank, rows=(), col=0)
        elif action == "wr":
            command = Command(kind=CommandKind.WR, bank=bank, rows=(), col=0)
        elif action == "pre":
            command = Command(kind=CommandKind.PRE, bank=bank, rows=())
        else:
            command = Command(kind=CommandKind.REF, bank=0, rows=())
        at = channel.earliest_issue(command) + rng.randrange(0, 3)
        channel.issue(command, at)
    assert checker.report.ok
    assert checker.report.commands == steps


@given(
    trcd=st.integers(1, 100),
    tras=st.integers(1, 300),
    trp=st.integers(1, 100),
    trrd=st.integers(1, 100),
    tfaw=st.integers(1, 300),
    trfc=st.integers(1, 2000),
    trefi=st.integers(1, 20_000),
)
def test_timing_parameters_validate_or_reject(
    trcd, tras, trp, trrd, tfaw, trfc, trefi
):
    """Random constraint sets are accepted or rejected, never crash."""
    try:
        timing = TimingParameters(
            trcd=trcd, tras=tras, trp=trp, trrd=trrd,
            tfaw=tfaw, trfc=trfc, trefi=trefi,
        )
    except ConfigError:
        assert tras < trcd or tfaw < trrd or trefi <= trfc
    else:
        assert timing.tras >= timing.trcd
        assert timing.tfaw >= timing.trrd
        assert timing.trefi > timing.trfc
        assert timing.trc == tras + trp
