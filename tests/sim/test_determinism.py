"""Bit-exact determinism of full-system runs.

Two invariants, both enforced in the CI matrix across Python versions:

* re-running the same (config, seed) in one process reproduces the exact
  telemetry digest — the property every hot-path optimization in this
  repo is verified against;
* the digests match ``tests/data/expected_digests.json``, committed once
  and asserted on every interpreter version CI runs, so a NumPy bit-
  stream change, dict-ordering change, or platform difference shows up
  as a test failure rather than as silently incomparable results.

If a deliberate behaviour change (new mechanism default, timing fix)
alters simulated execution, regenerate the JSON file and note why in the
commit — see "The digest gates" in docs/internals.md §8.
"""

import json
from pathlib import Path

from repro import SystemConfig, run_workload
from repro.check.scenarios import ORACLE_RUN

DATA = Path(__file__).resolve().parent.parent / "data" / "expected_digests.json"


def run_once(mechanism):
    config = SystemConfig(
        cores=1, mechanism=mechanism, seed=ORACLE_RUN.seed, telemetry=True
    )
    return run_workload(
        ORACLE_RUN.workload,
        config,
        instructions=ORACLE_RUN.instructions,
        warmup_instructions=ORACLE_RUN.warmup_instructions,
    )


class TestDeterminism:
    def test_identical_runs_produce_identical_digests(self):
        a = run_once("baseline")
        b = run_once("baseline")
        assert a.telemetry_digest() == b.telemetry_digest()
        assert a.cycles == b.cycles

    def test_digests_match_committed_expectations(self):
        expected = json.loads(DATA.read_text())
        assert len(expected) == 13  # the snapshot oracle suite relies on it
        for case, want in sorted(expected.items()):
            mechanism = case.removeprefix(f"{ORACLE_RUN.workload}-")
            result = run_once(mechanism)
            assert result.telemetry_digest() == want["digest"], mechanism
            assert result.cycles == want["cycles"], mechanism
