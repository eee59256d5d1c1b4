"""A source edit invalidates every persistent artifact the old code wrote.

The original code writes a campaign cache entry, a warm image and a
checkpoint. A copy of the package with one comment line appended to one
module then runs in a subprocess against all three: the campaign must
miss, the warm image must be recomputed and rewritten, and the
checkpoint must be journalled as discarded and its task rerun from
cycle 0 to the uninterrupted run's telemetry digest.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro
from repro.__main__ import main
from repro.exec import TaskSpec
from repro.keying import code_fingerprint
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.trace.stream import TraceStream
from tests.conftest import stop_at_first_checkpoint

DATA = Path(__file__).resolve().parent.parent / "data"
EXPECTED = json.loads((DATA / "expected_digests.json").read_text())

CAMPAIGN = [
    "campaign", "libq", "--mechanisms", "baseline", "--jobs", "1",
    "--instructions", "2000", "--warmup", "500",
]

#: Run by the edited copy. It builds the same spec, warm system and
#: campaign as the test, from the paths in ``sys.argv[1]``, and prints
#: one JSON report.
CHILD = """
import contextlib, io, json, sys
from repro.keying import code_fingerprint
from repro.__main__ import main
from repro.exec import ParallelCampaign, TaskSpec
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.snapshot import read_header
from repro.trace.stream import TraceStream

paths = json.loads(sys.argv[1])
report = {"lazy": code_fingerprint.cache_info().currsize == 0}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(paths["campaign"] + ["--cache-dir", paths["cache"]])
report["campaign"] = out.getvalue()
System(
    SystemConfig(seed=4), [TraceStream("mcf", 4)], warm_image=paths["image"]
).prewarm(20_000)
report["image_fingerprint"] = read_header(paths["image"])["code_fingerprint"]
spec = TaskSpec.workload(
    "libq", SystemConfig(cores=1, mechanism="crow-cache", seed=1,
                         telemetry=True),
    instructions=2_000, warmup_instructions=500, seed=0,
    checkpoint_dir=paths["checkpoints"],
)
with ParallelCampaign(
    paths["cache"], jobs=1, journal=paths["journal"]
) as campaign:
    (outcome,) = campaign.run([spec])
report["digest"] = outcome.result.telemetry_digest()
report["cycles"] = outcome.result.cycles
report["fingerprint"] = code_fingerprint()
print(json.dumps(report))
"""


def test_edited_copy_misses_every_artifact(tmp_path, capsys):
    paths = {
        "campaign": CAMPAIGN,
        "cache": str(tmp_path / "cache"),
        "image": str(tmp_path / "mcf.warm"),
        "checkpoints": str(tmp_path / "ck"),
        "journal": str(tmp_path / "journal.jsonl"),
    }
    # The original code writes all three artifacts.
    assert main(CAMPAIGN + ["--cache-dir", paths["cache"]]) == 0
    assert "cache hits=0" in capsys.readouterr().out
    assert main(CAMPAIGN + ["--cache-dir", paths["cache"]]) == 0
    assert "cache hits=1" in capsys.readouterr().out
    System(
        SystemConfig(seed=4), [TraceStream("mcf", 4)],
        warm_image=paths["image"],
    ).prewarm(20_000)
    image = Path(paths["image"])
    original_image = image.read_bytes()
    spec = TaskSpec.workload(
        "libq",
        SystemConfig(cores=1, mechanism="crow-cache", seed=1, telemetry=True),
        instructions=2_000, warmup_instructions=500, seed=0,
        checkpoint_dir=paths["checkpoints"], checkpoint_every=300,
    )
    assert stop_at_first_checkpoint(spec.run)["cycle"] == 300

    # A copy of the package with one comment line appended.
    package = Path(repro.__file__).resolve().parent
    copy = tmp_path / "src"
    shutil.copytree(
        package, copy / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    with (copy / "repro" / "units.py").open("a") as handle:
        handle.write("# an edit that changes no behaviour\n")
    env = {**os.environ, "PYTHONPATH": str(copy)}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(paths)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])

    assert report["lazy"]
    assert report["fingerprint"] != code_fingerprint()
    # The cache entry is a miss and is rewritten.
    assert "cache hits=0 misses=1" in report["campaign"]
    # The warm image is recomputed and rewritten by the copy.
    assert report["image_fingerprint"] == report["fingerprint"]
    assert image.read_bytes() != original_image
    # The checkpoint is discarded, with both fingerprints named, and the
    # task reruns from cycle 0 to the uninterrupted run's digest.
    journal = [
        json.loads(line)
        for line in Path(paths["journal"]).read_text().splitlines()
    ]
    assert not [e for e in journal if e["event"] == "task_resumed"]
    (discarded,) = [
        e for e in journal if e["event"] == "checkpoint_discarded"
    ]
    assert code_fingerprint() in discarded["reason"]
    assert report["fingerprint"] in discarded["reason"]
    want = EXPECTED["libq-crow-cache"]
    assert report["digest"] == want["digest"]
    assert report["cycles"] == want["cycles"]
    assert not spec.checkpoint_path().is_file()
