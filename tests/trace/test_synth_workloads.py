"""Tests for trace generators, the workload suite, and mix construction."""

import itertools

import pytest

from repro.errors import ConfigError
from repro.trace import (
    MIX_GROUPS,
    WORKLOADS,
    build_mix,
    workload,
    workloads_by_class,
)
from repro.trace.synth import (
    hotset_trace,
    mixed_trace,
    multistream_trace,
    random_trace,
    streaming_trace,
    strided_trace,
)
from repro.units import MIB


def take(generator, n):
    return list(itertools.islice(generator, n))


class TestGenerators:
    def test_streaming_is_sequential(self):
        records = take(streaming_trace(1 * MIB, seed=1), 100)
        addresses = [r.vaddr for r in records]
        assert addresses == sorted(addresses)
        assert addresses[1] - addresses[0] == 64

    def test_streaming_wraps_around(self):
        lines = 1 * MIB // 64
        records = take(streaming_trace(1 * MIB, seed=1), lines + 10)
        assert records[lines].vaddr == records[0].vaddr

    def test_random_stays_in_footprint(self):
        records = take(random_trace(1 * MIB, base_vaddr=0, seed=2), 500)
        assert all(0 <= r.vaddr < 1 * MIB for r in records)

    def test_strided_stride(self):
        records = take(strided_trace(1 * MIB, stride_bytes=256, seed=3), 10)
        deltas = {records[i + 1].vaddr - records[i].vaddr for i in range(9)}
        assert deltas == {256}

    def test_strided_rejects_sub_line_stride(self):
        with pytest.raises(ConfigError):
            next(strided_trace(1 * MIB, stride_bytes=32))

    def test_hotset_concentrates_accesses(self):
        records = take(
            hotset_trace(4 * MIB, hot_bytes=64 * 1024, hot_fraction=0.9,
                         base_vaddr=0, seed=4),
            2000,
        )
        in_hot = sum(1 for r in records if r.vaddr < 64 * 1024)
        assert in_hot / len(records) > 0.8

    def test_multistream_interleaves_sequential_streams(self):
        records = take(
            multistream_trace(4 * MIB, streams=4, base_vaddr=0, seed=5), 2000
        )
        region = 4 * MIB // 4
        # Within each stream's region, addresses advance sequentially.
        for stream in range(4):
            addrs = [r.vaddr for r in records
                     if stream * region <= r.vaddr < (stream + 1) * region]
            assert addrs == sorted(addrs)
            assert len(addrs) > 100

    def test_multistream_distinct_pcs(self):
        records = take(multistream_trace(4 * MIB, streams=4, seed=5), 200)
        assert len({r.pc for r in records}) == 4

    def test_mixed_alternates_phases(self):
        generator = mixed_trace([
            (streaming_trace(1 * MIB, base_vaddr=0, seed=1), 3),
            (streaming_trace(1 * MIB, base_vaddr=1 << 30, seed=1), 2),
        ])
        records = take(generator, 10)
        assert [r.vaddr >= 1 << 30 for r in records] == [
            False, False, False, True, True,
            False, False, False, True, True,
        ]

    def test_deterministic_given_seed(self):
        a = take(random_trace(1 * MIB, seed=7), 50)
        b = take(random_trace(1 * MIB, seed=7), 50)
        assert a == b

    def test_bubbles_respect_mean(self):
        records = take(streaming_trace(1 * MIB, bubbles_mean=30.0, seed=1), 3000)
        mean = sum(r.bubbles for r in records) / len(records)
        assert mean == pytest.approx(30.0, rel=0.1)


class TestWorkloadSuite:
    def test_suite_size_and_classes(self):
        """The suite matches the paper's 44-application count."""
        assert len(WORKLOADS) == 44
        for cls in ("L", "M", "H"):
            assert len(workloads_by_class(cls)) >= 10

    def test_paper_microbenchmarks_present(self):
        assert "random" in WORKLOADS
        assert "streaming" in WORKLOADS

    def test_lookup_unknown_raises(self):
        with pytest.raises(ConfigError):
            workload("quake3")

    def test_factory_must_return_a_chunk_trace(self):
        from repro.trace import Workload

        records = take(workload("libq").trace(0), 5)
        plain = Workload("plain", "L", "test", "records",
                         lambda seed: iter(records))
        with pytest.raises(ConfigError, match="'plain'.*ChunkTrace"):
            plain.trace(0)

    def test_traces_are_fresh_iterators(self):
        w = workload("libq")
        first = take(w.trace(0), 5)
        second = take(w.trace(0), 5)
        assert first == second

    def test_seed_changes_trace(self):
        w = workload("mcf")
        assert take(w.trace(0), 20) != take(w.trace(1), 20)

    def test_all_workloads_yield_records(self):
        for w in WORKLOADS.values():
            records = take(w.trace(0), 5)
            assert len(records) == 5
            assert all(r.bubbles >= 0 and r.vaddr >= 0 for r in records)


class TestMixes:
    def test_groups_cover_paper_signatures(self):
        assert "LLHH" in MIX_GROUPS and "HHHH" in MIX_GROUPS
        assert len(MIX_GROUPS) == 8

    def test_mix_respects_signature(self):
        mix = build_mix("LLHH", seed=3)
        assert [w.expected_class for w in mix] == ["L", "L", "H", "H"]

    def test_mixes_differ_within_group(self):
        group = [build_mix("MMHH", seed=seed) for seed in range(10)]
        names = {tuple(w.name for w in mix) for mix in group}
        assert len(names) > 1

    def test_deterministic(self):
        a = [w.name for w in build_mix("HHHH", seed=5)]
        b = [w.name for w in build_mix("HHHH", seed=5)]
        assert a == b

    def test_invalid_signature(self):
        with pytest.raises(ConfigError):
            build_mix("LLX")
