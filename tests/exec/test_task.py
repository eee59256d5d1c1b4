"""Tests for TaskSpec: identity, digests, execution equivalence."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import SystemConfig, run_workload
from repro.errors import ConfigError
from repro.exec import TaskSpec, execute_task

RUN = dict(instructions=3_000, warmup_instructions=1_000)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TaskSpec(kind="suite", names=("libq",))

    def test_empty_names_rejected(self):
        with pytest.raises(ConfigError):
            TaskSpec(kind="wl", names=())

    def test_wl_takes_exactly_one_name(self):
        with pytest.raises(ConfigError):
            TaskSpec(kind="wl", names=("libq", "mcf"))

    @pytest.mark.parametrize("run", [
        dict(instructions=0, warmup_instructions=0),
        dict(instructions=1_000, warmup_instructions=-1),
    ])
    def test_invalid_run_lengths_rejected(self, run):
        with pytest.raises(ConfigError, match="invalid instruction counts"):
            TaskSpec.workload("libq", **run)
        with pytest.raises(ConfigError, match="invalid instruction counts"):
            TaskSpec.mix(["libq", "mcf"], **run)

    def test_names_normalized_to_tuple(self):
        spec = TaskSpec.mix(["libq", "mcf"])
        assert spec.names == ("libq", "mcf")


class TestDigest:
    def test_equal_specs_share_a_digest(self):
        a = TaskSpec.workload("libq", SystemConfig(), seed=3, **RUN)
        b = TaskSpec.workload("libq", SystemConfig(), seed=3, **RUN)
        assert a.digest() == b.digest()
        assert a.cache_filename() == b.cache_filename()

    def test_every_field_feeds_the_digest(self):
        base = TaskSpec.workload("libq", SystemConfig(), seed=0, **RUN)
        variants = [
            TaskSpec.workload("mcf", SystemConfig(), seed=0, **RUN),
            TaskSpec.workload(
                "libq", SystemConfig(mechanism="crow-cache"), seed=0, **RUN
            ),
            TaskSpec.workload("libq", SystemConfig(), seed=1, **RUN),
            TaskSpec.workload(
                "libq", SystemConfig(), seed=0,
                instructions=4_000, warmup_instructions=1_000,
            ),
            TaskSpec.workload(
                "libq", SystemConfig(), seed=0,
                instructions=3_000, warmup_instructions=2_000,
            ),
            TaskSpec.mix(["libq"], SystemConfig(), seed=0, **RUN),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_digest_stable_across_processes(self):
        """The digest is the cache key: it must agree between the parent
        and any worker process (no salted hash(), no object identity)."""
        spec = TaskSpec.workload(
            "libq", SystemConfig(mechanism="crow-cache", copy_rows=4),
            instructions=5_000, warmup_instructions=1_000, seed=3,
        )
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        code = (
            "from repro import SystemConfig\n"
            "from repro.exec import TaskSpec\n"
            "spec = TaskSpec.workload('libq', "
            "SystemConfig(mechanism='crow-cache', copy_rows=4), "
            "instructions=5_000, warmup_instructions=1_000, seed=3)\n"
            "print(spec.digest())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert out == spec.digest()


class TestExecution:
    def test_workload_task_matches_direct_run(self):
        spec = TaskSpec.workload("h264-dec", SystemConfig(), **RUN)
        direct = run_workload("h264-dec", SystemConfig(), **RUN)
        via_task = execute_task(spec)
        assert via_task.ipc == direct.ipc
        assert via_task.cycles == direct.cycles
        assert via_task.total_energy_nj == direct.total_energy_nj

    def test_mix_task_runs_one_core_per_name(self):
        spec = TaskSpec.mix(
            ["libq", "bzip2"], SystemConfig(cores=2),
            instructions=2_000, warmup_instructions=500,
        )
        result = spec.run()
        assert result.cores == 2
        assert len(result.core_ipcs) == 2

    def test_label_is_informative(self):
        spec = TaskSpec.mix(
            ["libq", "mcf"], SystemConfig(mechanism="crow-cache"), seed=2
        )
        assert "libq" in spec.label
        assert "crow-cache" in spec.label
        assert "#2" in spec.label
