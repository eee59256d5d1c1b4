"""Tests for the disk-cached experiment campaign: keys and the store.

Runs go through :class:`ParallelCampaign` with ``jobs=1`` (in-process),
the one runner in front of the :class:`~repro.sim.Campaign` store.
"""

import dataclasses
import json
import os

import pytest

from repro import SystemConfig
from repro.exec import ParallelCampaign, TaskSpec
from repro.sim.campaign import config_digest
from repro.errors import ConfigError
from repro.keying import code_fingerprint, jsonable
from repro.snapshot import container, read_header, write_snapshot

RUN = dict(instructions=3_000, warmup_instructions=1_000)


def _run(campaign, spec):
    (result,) = campaign.results([spec])
    return result


def _libq(**kwargs):
    return TaskSpec.workload("libq", SystemConfig(), **{**RUN, **kwargs})


class TestCaching:
    def test_second_run_is_a_cache_hit(self, tmp_path):
        campaign = ParallelCampaign(tmp_path, jobs=1)
        first = _run(campaign, _libq())
        second = _run(campaign, _libq())
        assert campaign.hits == 1 and campaign.misses == 1
        assert first.ipc == second.ipc
        assert first.total_energy_nj == second.total_energy_nj

    def test_cache_distinguishes_configs(self, tmp_path):
        campaign = ParallelCampaign(tmp_path, jobs=1)
        _run(campaign, _libq())
        _run(campaign, TaskSpec.workload(
            "libq", SystemConfig(mechanism="crow-cache"), **RUN
        ))
        assert campaign.misses == 2

    def test_cache_distinguishes_seeds_and_lengths(self, tmp_path):
        campaign = ParallelCampaign(tmp_path, jobs=1)
        _run(campaign, _libq(seed=0))
        _run(campaign, _libq(seed=1))
        _run(campaign, _libq(
            seed=0, instructions=4_000, warmup_instructions=1_000,
        ))
        assert campaign.misses == 3

    def test_cached_result_equals_fresh_run(self, tmp_path):
        from repro.sim import run_workload

        campaign = ParallelCampaign(tmp_path, jobs=1)
        cached = _run(campaign, TaskSpec.workload(
            "h264-dec", SystemConfig(), **RUN
        ))
        fresh = run_workload("h264-dec", SystemConfig(), **RUN)
        assert cached.ipc == fresh.ipc
        assert cached.cycles == fresh.cycles

    def test_mix_caching(self, tmp_path):
        campaign = ParallelCampaign(tmp_path, jobs=1)
        spec = TaskSpec.mix(
            ["libq", "bzip2"], SystemConfig(cores=2),
            instructions=2_000, warmup_instructions=500,
        )
        first = _run(campaign, spec)
        second = _run(campaign, spec)
        assert campaign.hits == 1
        assert first.core_ipcs == second.core_ipcs

    def test_config_digest_covers_every_field(self, tmp_path):
        """Changing any SystemConfig field must change the cache key."""
        base = SystemConfig()
        digests = {config_digest(base)}
        variations = dict(
            cores=2,
            mechanism="crow-cache",
            density_gbit=16,
            copy_rows=4,
            llc_size_bytes=1 << 20,
            prefetcher=True,
            seed=99,
            evict_partial="restore",
        )
        for field, value in variations.items():
            changed = dataclasses.replace(base, **{field: value})
            digests.add(config_digest(changed))
        assert len(digests) == len(variations) + 1


@dataclasses.dataclass(frozen=True)
class _Knobs:
    depth: int
    weights: tuple
    table: dict


class _Slotted:
    """No __dict__, no custom __repr__: nothing stable to key on."""

    __slots__ = ()


class _Plain:
    def __init__(self, gain):
        self.gain = gain


class TestJsonable:
    def test_dataclass_dict_tuple_projection_is_stable(self):
        a = _Knobs(depth=2, weights=(0.5, 1.0), table={"b": 2, "a": 1})
        b = _Knobs(depth=2, weights=(0.5, 1.0), table={"a": 1, "b": 2})
        assert jsonable(a) == jsonable(b)
        assert json.dumps(jsonable(a), sort_keys=True) == \
            json.dumps(jsonable(b), sort_keys=True)
        assert jsonable(a)["weights"] == [0.5, 1.0]

    def test_plain_objects_keyed_by_class_and_attrs(self):
        assert jsonable(_Plain(3)) == jsonable(_Plain(3))
        assert jsonable(_Plain(3)) != jsonable(_Plain(4))
        assert jsonable(_Plain(3))["__class__"] == "_Plain"

    def test_identityless_value_raises_instead_of_poisoning_the_key(self):
        """default object.__repr__ embeds a memory address: two digests of
        the same logical config would differ between runs. Reject it."""
        with pytest.raises(ConfigError, match="no\\s+stable representation"):
            jsonable(_Slotted())

    def test_config_digest_is_identity_free(self):
        assert config_digest(SystemConfig()) == config_digest(SystemConfig())


class TestCacheRobustness:
    def _path(self, campaign):
        return campaign.campaign.directory / _libq().cache_filename()

    def test_corrupt_entry_is_a_miss_and_gets_repaired(self, tmp_path):
        campaign = ParallelCampaign(tmp_path, jobs=1)
        path = self._path(campaign)
        path.write_bytes(b"torn-pickle-from-a-killed-writer")
        result = _run(campaign, _libq())
        assert campaign.misses == 1 and campaign.hits == 0
        assert result.ipc > 0
        # The slot was rewritten cleanly: the next read is a hit.
        _run(campaign, _libq())
        assert campaign.hits == 1

    def test_wrong_type_entry_is_a_miss(self, tmp_path):
        campaign = ParallelCampaign(tmp_path, jobs=1)
        path = self._path(campaign)
        write_snapshot(path, {"kind": "result"}, {"not": "a SimResult"})
        _run(campaign, _libq())
        assert campaign.misses == 1

    def test_entry_written_by_other_code_is_a_miss_and_rewritten(
        self, tmp_path, monkeypatch
    ):
        campaign = ParallelCampaign(tmp_path, jobs=1)
        monkeypatch.setattr(container, "code_fingerprint", lambda: "f" * 20)
        cached_elsewhere = _run(campaign, _libq())
        monkeypatch.undo()
        path = self._path(campaign)
        assert read_header(path)["code_fingerprint"] == "f" * 20
        rerun = ParallelCampaign(tmp_path, jobs=1)
        assert _run(rerun, _libq()) == cached_elsewhere
        assert rerun.hits == 0 and rerun.misses == 1
        assert read_header(path)["code_fingerprint"] == code_fingerprint()

    def test_store_is_atomic_via_replace(self, tmp_path, monkeypatch):
        replaced = []
        real_replace = os.replace

        def spy(src, dst):
            replaced.append((str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        campaign = ParallelCampaign(tmp_path, jobs=1)
        _run(campaign, _libq())
        assert len(replaced) == 1
        src, dst = replaced[0]
        assert src.endswith(".tmp") and dst.endswith(".pkl")
        # No temporary droppings survive the write.
        assert not list(tmp_path.glob("*.tmp"))

    def test_interrupted_write_leaves_no_entry(self, tmp_path, monkeypatch):
        """A writer killed before the rename must leave the cache slot
        empty (a miss), never a torn pickle."""
        campaign = ParallelCampaign(tmp_path, jobs=1)

        def die(src, dst):
            raise KeyboardInterrupt("killed mid-store")

        monkeypatch.setattr(os, "replace", die)
        with pytest.raises(KeyboardInterrupt):
            _run(campaign, _libq())
        assert not list(tmp_path.glob("*.pkl"))
        assert not list(tmp_path.glob("*.tmp"))
