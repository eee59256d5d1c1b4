"""Chunk-array trace production vs. the scalar reference generators.

The functional pre-warm consumes traces through
:meth:`ChunkTrace.take_arrays`; record consumers use ``next()``.
Both must see exactly the record sequence the original per-record
generators produced — same RNG draw order, same values, same Python
types — and so must a trace restored from a pickle. The reference implementations below are verbatim copies of the
pre-chunk generator bodies.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.cpu.core import TraceRecord
from repro.errors import ConfigError
from repro.trace.chunks import ChunkTrace
from repro.trace.synth import (
    LINE,
    hotset_trace,
    mixed_trace,
    multistream_trace,
    random_trace,
    streaming_trace,
    strided_trace,
)

_CHUNK = 1024


def _bubbles(rng, mean, count):
    if mean <= 0:
        return np.zeros(count, dtype=np.int64)
    return rng.poisson(mean, size=count).astype(np.int64)


# ----------------------------------------------------------------------
# Reference implementations: the original scalar generators, verbatim.
# ----------------------------------------------------------------------
def ref_streaming(footprint_bytes, bubbles_mean, write_fraction,
                  base_vaddr, seed):
    rng = np.random.default_rng(seed)
    lines = footprint_bytes // LINE
    position = 0
    pc = 0x400000
    while True:
        bubbles = _bubbles(rng, bubbles_mean, _CHUNK).tolist()
        writes = (rng.random(_CHUNK) < write_fraction).tolist()
        vaddrs = (
            base_vaddr
            + (np.arange(position, position + _CHUNK) % lines) * LINE
        ).tolist()
        position += _CHUNK
        yield from map(TraceRecord, bubbles, vaddrs, writes, (pc,) * _CHUNK)


def ref_random(footprint_bytes, bubbles_mean, write_fraction,
               base_vaddr, seed):
    rng = np.random.default_rng(seed)
    lines = footprint_bytes // LINE
    while True:
        bubbles = _bubbles(rng, bubbles_mean, _CHUNK).tolist()
        targets = rng.integers(0, lines, size=_CHUNK)
        writes = (rng.random(_CHUNK) < write_fraction).tolist()
        pcs = rng.integers(0, 64, size=_CHUNK)
        vaddrs = (base_vaddr + targets * LINE).tolist()
        pc_list = (0x500000 + pcs * 4).tolist()
        yield from map(TraceRecord, bubbles, vaddrs, writes, pc_list)


def ref_strided(footprint_bytes, stride_bytes, bubbles_mean,
                write_fraction, base_vaddr, seed):
    rng = np.random.default_rng(seed)
    position = 0
    pc = 0x600000
    while True:
        bubbles = _bubbles(rng, bubbles_mean, _CHUNK).tolist()
        writes = (rng.random(_CHUNK) < write_fraction).tolist()
        vaddrs = (
            base_vaddr
            + (np.arange(position, position + _CHUNK) * stride_bytes)
            % footprint_bytes
        ).tolist()
        position += _CHUNK
        yield from map(TraceRecord, bubbles, vaddrs, writes, (pc,) * _CHUNK)


def ref_hotset(footprint_bytes, hot_bytes, hot_fraction, bubbles_mean,
               write_fraction, base_vaddr, seed):
    rng = np.random.default_rng(seed)
    hot_lines = hot_bytes // LINE
    all_lines = footprint_bytes // LINE
    while True:
        bubbles = _bubbles(rng, bubbles_mean, _CHUNK).tolist()
        hot = (rng.random(_CHUNK) < hot_fraction).tolist()
        targets = rng.integers(0, 1 << 62, size=_CHUNK).tolist()
        writes = (rng.random(_CHUNK) < write_fraction).tolist()
        run = rng.integers(2, 8, size=_CHUNK).tolist()
        i = 0
        while i < _CHUNK:
            if hot[i]:
                start = targets[i] % hot_lines
                for offset in range(run[i]):
                    line = (start + offset) % hot_lines
                    yield TraceRecord(
                        bubbles[i],
                        base_vaddr + line * LINE,
                        writes[i],
                        0x700000,
                    )
            else:
                line = targets[i] % all_lines
                yield TraceRecord(
                    bubbles[i],
                    base_vaddr + line * LINE,
                    writes[i],
                    0x700100,
                )
            i += 1


def ref_multistream(footprint_bytes, streams, bubbles_mean,
                    write_fraction, restart_period, base_vaddr, seed):
    rng = np.random.default_rng(seed)
    region_lines = footprint_bytes // LINE // streams
    positions = np.zeros(streams, dtype=np.int64)
    count = 0
    while True:
        bubbles = _bubbles(rng, bubbles_mean, _CHUNK).tolist()
        picks = rng.integers(0, streams, size=_CHUNK)
        writes = (rng.random(_CHUNK) < write_fraction).tolist()
        picks_list = picks.tolist()
        for i in range(_CHUNK):
            stream = picks_list[i]
            line = int(positions[stream]) % region_lines
            positions[stream] += 1
            count += 1
            if restart_period and count % restart_period == 0:
                positions[int(rng.integers(0, streams))] = 0
            vaddr = base_vaddr + (stream * region_lines + line) * LINE
            yield TraceRecord(
                bubbles[i], vaddr, writes[i], 0x800000 + stream * 4
            )


# Note: the scalar multistream reference above is only draw-compatible
# with the vectorized path when restart_period == 0 (both then draw
# bubbles/picks/writes per chunk and nothing else).
CASES = [
    (
        "streaming",
        lambda: streaming_trace(1 << 20, 12.0, 0.3, 0x1000, 7),
        lambda: ref_streaming(1 << 20, 12.0, 0.3, 0x1000, 7),
    ),
    (
        "streaming-nobubbles",
        lambda: streaming_trace(1 << 14, 0.0, 0.0, 0x1000, 7),
        lambda: ref_streaming(1 << 14, 0.0, 0.0, 0x1000, 7),
    ),
    (
        "random",
        lambda: random_trace(1 << 18, 3.0, 0.5, 0x2000, 11),
        lambda: ref_random(1 << 18, 3.0, 0.5, 0x2000, 11),
    ),
    (
        "strided",
        lambda: strided_trace(1 << 19, 256, 5.0, 0.1, 0x3000, 13),
        lambda: ref_strided(1 << 19, 256, 5.0, 0.1, 0x3000, 13),
    ),
    (
        "hotset",
        lambda: hotset_trace(1 << 20, 1 << 14, 0.8, 4.0, 0.2, 0x4000, 17),
        lambda: ref_hotset(1 << 20, 1 << 14, 0.8, 4.0, 0.2, 0x4000, 17),
    ),
    (
        "multistream",
        lambda: multistream_trace(1 << 20, 7, 2.0, 0.2, 0, 0x5000, 19),
        lambda: ref_multistream(1 << 20, 7, 2.0, 0.2, 0, 0x5000, 19),
    ),
    (
        "multistream-restart",
        lambda: multistream_trace(1 << 20, 5, 2.0, 0.2, 33, 0x5000, 23),
        lambda: ref_multistream(1 << 20, 5, 2.0, 0.2, 33, 0x5000, 23),
    ),
]

N = 5000


@pytest.mark.parametrize(
    "make_new,make_ref", [(c[1], c[2]) for c in CASES],
    ids=[c[0] for c in CASES],
)
def test_records_match_reference(make_new, make_ref):
    new = list(itertools.islice(make_new(), N))
    ref = list(itertools.islice(make_ref(), N))
    assert new == ref
    # Byte-identity requires plain Python types, not numpy scalars.
    for record in new[:64]:
        assert type(record[0]) is int
        assert type(record[1]) is int
        assert type(record[2]) is bool
        assert type(record[3]) is int


@pytest.mark.parametrize(
    "make_new,make_ref", [(c[1], c[2]) for c in CASES],
    ids=[c[0] for c in CASES],
)
def test_take_arrays_matches_records(make_new, make_ref):
    trace = make_new()
    assert isinstance(trace, ChunkTrace)
    # Odd sizes force mid-chunk splits and chunk-boundary straddles.
    sizes = [1, 700, 1024, 1500, 3]
    ref = make_ref()
    for size in sizes:
        vaddrs, writes = trace.take_arrays(size)
        expected = list(itertools.islice(ref, size))
        assert vaddrs.tolist() == [r[1] for r in expected]
        assert writes.tolist() == [r[2] for r in expected]
    # Interleaving record and array views continues the same stream.
    tail = list(itertools.islice(trace, 100))
    assert tail == list(itertools.islice(ref, 100))


@pytest.mark.parametrize(
    "make_new,make_ref", [(c[1], c[2]) for c in CASES],
    ids=[c[0] for c in CASES],
)
def test_pickled_trace_resumes_like_reading(make_new, make_ref):
    """A trace pickled after 3,333 records continues exactly where the
    reference generator is after reading them."""
    trace = make_new()
    trace.take_arrays(3000)
    list(itertools.islice(trace, 333))
    restored = pickle.loads(pickle.dumps(trace))
    ref = make_ref()
    for _ in range(3333):
        next(ref)
    assert list(itertools.islice(restored, 200)) == list(
        itertools.islice(ref, 200)
    )


def test_mixed_trace_matches_round_robin_reference():
    new = mixed_trace(
        [
            (streaming_trace(1 << 16, 2.0, 0.0, 0x1000, 3), 5),
            (random_trace(1 << 16, 2.0, 0.5, 0x2000, 4), 2),
            (hotset_trace(1 << 18, 1 << 12, 0.9, 2.0, 0.2, 0x4000, 5), 1),
        ]
    )
    children = [
        (ref_streaming(1 << 16, 2.0, 0.0, 0x1000, 3), 5),
        (ref_random(1 << 16, 2.0, 0.5, 0x2000, 4), 2),
        (ref_hotset(1 << 18, 1 << 12, 0.9, 2.0, 0.2, 0x4000, 5), 1),
    ]

    def ref():
        while True:
            for generator, length in children:
                for _ in range(length):
                    yield next(generator)

    assert list(itertools.islice(new, N)) == list(itertools.islice(ref(), N))


def _finite_chunk_trace(records):
    """A finite ChunkTrace holding exactly ``records``, in one chunk."""
    columns = list(zip(*records))
    dtypes = (np.int64, np.int64, bool, np.int64)
    return ChunkTrace(iter([
        tuple(np.asarray(c, dtype=t) for c, t in zip(columns, dtypes))
    ]))


def test_mixed_trace_stops_when_a_finite_phase_runs_dry():
    records = [TraceRecord(1, 64 * i, False, 0x10) for i in range(7)]
    trace = mixed_trace([(_finite_chunk_trace(records), 2)])
    decoded = list(trace)
    assert decoded == records
    assert [type(v) for v in decoded[0]] == [int, int, bool, int]


def test_mixed_trace_rejects_plain_iterators():
    plain = iter([TraceRecord(1, 64, False, 0x10)])
    with pytest.raises(ConfigError, match="ChunkTrace"):
        mixed_trace([(plain, 2)])


def test_take_arrays_on_exhausted_stream_returns_empty():
    trace = ChunkTrace(iter([]))
    vaddrs, writes = trace.take_arrays(10)
    assert len(vaddrs) == 0 and len(writes) == 0
    assert list(trace) == []
