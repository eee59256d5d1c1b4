"""The conformance and digest oracle over the repo's six reference cases.

Each case runs once, checked in report mode with telemetry on, and must
be conformant and reproduce its pinned telemetry digest and cycle
count. Four full-geometry cases pin their digests here: a single-core
streaming workload (libquantum-like) and a 4-core heterogeneous mix,
each with the CROW in-DRAM cache off and on. Together they cover the
core model, the LLC, the scheduler, the DRAM timing machines, CROW-cache
and refresh. The two ``digest-*`` cases run the oracle run shape and
read their digests from ``tests/data/expected_digests.json``.
"""

import json
from pathlib import Path

import pytest

from repro.check.scenarios import ORACLE_RUN, run_checked_case

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "expected_digests.json")
    .read_text()
)

MIX = ("libq", "mcf", "stream-copy", "milc")


def _oracle_run_case(mechanism):
    key = f"{ORACLE_RUN.workload}-{mechanism}"
    return (
        f"digest-{key}", (ORACLE_RUN.workload,), mechanism,
        ORACLE_RUN.instructions, ORACLE_RUN.warmup_instructions,
        ORACLE_RUN.seed, DIGESTS[key]["cycles"], DIGESTS[key]["digest"],
    )


# (label, workloads, mechanism, instructions, warmup, seed, cycles, digest)
ORACLE_CASES = [
    ("libq-1c-base", ("libq",), "baseline", 20_000, 5_000, 1,
     5730, "870fef7785216f54"),
    ("libq-1c-crow", ("libq",), "crow-cache", 20_000, 5_000, 1,
     5730, "aaf8c8744aca52af"),
    ("mix-4c-base", MIX, "baseline", 10_000, 2_500, 1,
     18889, "12349ecea49bcd5c"),
    ("mix-4c-crow", MIX, "crow-cache", 10_000, 2_500, 1,
     17728, "e5b679429989b299"),
    _oracle_run_case("baseline"),
    _oracle_run_case("crow-cache"),
]


@pytest.mark.parametrize(
    "label, workloads, mechanism, instructions, warmup, seed, cycles, digest",
    ORACLE_CASES,
    ids=[case[0] for case in ORACLE_CASES],
)
def test_oracle_case_is_conformant(
    label, workloads, mechanism, instructions, warmup, seed, cycles, digest
):
    result, report = run_checked_case(
        workloads, mechanism, instructions, warmup, seed=seed,
        telemetry=True,
    )
    assert report.commands > 0, label
    assert report.ok, f"{label}: {report.summary()}"
    assert result.telemetry_digest() == digest, label
    assert result.cycles == cycles, label


def test_oracle_cases_cover_six_cases():
    assert len(ORACLE_CASES) == 6
