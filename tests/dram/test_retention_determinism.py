"""Cross-process determinism of the RetentionModel weak-row sampling.

The weak-row sets are the ground truth for CROW-ref remapping, the
conformance checker's weak-row rules and the probe retention scans — if
two processes (a campaign and one of its pool workers) derived
different sets from the same seed, every one of those layers would
silently diverge. These tests pin the guarantee at the process boundary:
a *fresh interpreter* must reproduce ``weak_set_digest`` byte-for-byte,
in both fixed and sampled modes, with hash randomization left on (the
digest must not lean on ``hash()`` or iteration order).
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.dram.geometry import DramGeometry
from repro.dram.retention import RetentionModel

_SRC = Path(__file__).resolve().parents[2] / "src"

_GEOMETRY = dict(
    channels=1, banks_per_rank=4, rows_per_bank=1024, rows_per_subarray=256,
)

_CHILD = """\
from repro.dram.geometry import DramGeometry
from repro.dram.retention import RetentionModel

model = RetentionModel(
    DramGeometry(channels=1, banks_per_rank=4, rows_per_bank=1024,
                 rows_per_subarray=256),
    target_interval_ms=128.0,
    weak_rows_per_subarray={weak!r},
    seed={seed},
)
print(model.weak_set_digest())
"""


def _digest_in_fresh_interpreter(seed: int, weak: "int | None") -> str:
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD.format(seed=seed, weak=weak)],
        capture_output=True, text=True, check=True,
        env={
            **os.environ,
            "PYTHONPATH": str(_SRC),
            "PYTHONHASHSEED": "random",
        },
    )
    return completed.stdout.strip()


def _model(seed: int, weak: "int | None") -> RetentionModel:
    return RetentionModel(
        DramGeometry(**_GEOMETRY),
        target_interval_ms=128.0,
        weak_rows_per_subarray=weak,
        seed=seed,
    )


def test_fixed_mode_digest_survives_the_process_boundary():
    assert _model(7, 3).weak_set_digest() == _digest_in_fresh_interpreter(
        7, 3
    )


def test_sampled_mode_digest_survives_the_process_boundary():
    assert (
        _model(7, None).weak_set_digest()
        == _digest_in_fresh_interpreter(7, None)
    )


def test_different_seeds_sample_different_sets():
    assert _model(7, 3).weak_set_digest() != _model(8, 3).weak_set_digest()


def test_query_order_does_not_matter():
    forward, backward = _model(7, 3), _model(7, 3)
    banks = DramGeometry(**_GEOMETRY).banks_per_channel
    for bank in range(banks):
        forward.weak_regular_rows(0, bank, 0)
    for bank in reversed(range(banks)):
        backward.weak_regular_rows(0, bank, 0)
    assert forward.weak_set_digest() == backward.weak_set_digest()
