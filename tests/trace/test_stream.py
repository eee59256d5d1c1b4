"""Pickling a :class:`TraceStream` stores its position, not its history.

A snapshot or warm image pickles each core's stream as it stands: the
producer's RNG and pattern state, the current chunk and the position in
it. The restored stream must continue with exactly the records and
array columns the original yields next, wherever it was pickled, and
unpickling must not regenerate the consumed prefix.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.cpu.core import TraceRecord
from repro.trace import WORKLOADS
from repro.trace.chunks import ChunkTrace
from repro.trace.stream import TraceStream
from repro.trace.synth import multistream_trace


def _restart_multistream():
    return TraceStream(
        "multistream-restart", 3,
        multistream_trace(1 << 20, streams=5, bubbles_mean=2.0,
                          write_fraction=0.2, restart_period=33, seed=23),
    )


def _finite():
    records = [TraceRecord(i % 5, 64 * i, i % 3 == 0, 0x10)
               for i in range(3000)]
    columns = list(zip(*records))
    dtypes = (np.int64, np.int64, bool, np.int64)
    chunks = [
        tuple(np.asarray(c[start:start + 700], dtype=t)
              for c, t in zip(columns, dtypes))
        for start in range(0, 3000, 700)
    ]
    return TraceStream("finite", 0, ChunkTrace(iter(chunks)))


STREAMS = [
    *((name, lambda name=name: TraceStream(name, 9)) for name in WORKLOADS),
    ("multistream-restart", _restart_multistream),
    ("finite", _finite),
]


def _at_boundary(stream):
    """Read on to the end of the current chunk."""
    stream.take_arrays(10)
    trace = stream._it
    stream.take_arrays(len(trace._arrays[1]) - trace._pos)
    assert trace._pos == len(trace._arrays[1])


POSITIONS = {
    "start": lambda stream: None,
    "mid-chunk": lambda stream: stream.take_arrays(500),
    "chunk-boundary": _at_boundary,
    "after-take-arrays": lambda stream: stream.take_arrays(1500),
    "after-records": lambda stream: list(itertools.islice(stream, 1337)),
}


def _continuation(stream):
    """What the stream yields next: columns, then records, then columns."""
    head = stream.take_arrays(1100)
    records = list(itertools.islice(stream, 1100))
    tail = stream.take_arrays(900)
    return (
        [column.tolist() for column in head],
        records,
        [column.tolist() for column in tail],
    )


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize(
    "make", [make for _, make in STREAMS], ids=[name for name, _ in STREAMS]
)
def test_unpickled_stream_continues_like_the_original(make, position):
    stream = make()
    POSITIONS[position](stream)
    restored = pickle.loads(pickle.dumps(stream))
    assert type(restored) is TraceStream
    assert (restored.workload_name, restored.seed, restored.consumed) == (
        stream.workload_name, stream.seed, stream.consumed
    )
    assert _continuation(restored) == _continuation(stream)
    assert restored.consumed == stream.consumed


def test_unpickling_regenerates_nothing(monkeypatch):
    """200k records in, a restored stream pulls no chunk while loading
    and at most one before its next record; the pickle holds at most one
    chunk beyond what a fresh stream's does."""
    stream = TraceStream("mcf", 9)
    stream.take_arrays(200_000)  # mid-chunk: 200,000 % 1,024 = 320
    data = pickle.dumps(stream)
    fresh = len(pickle.dumps(TraceStream("mcf", 9)))
    chunk = stream._it._arrays
    assert len(data) - fresh <= sum(column.nbytes for column in chunk) + 512

    pulls = []
    advance = ChunkTrace._advance
    monkeypatch.setattr(
        ChunkTrace, "_advance",
        lambda self: pulls.append(1) or advance(self),
    )
    restored = pickle.loads(data)
    assert pulls == []
    assert next(restored) == next(stream)
    assert len(pulls) <= 1
    assert restored.consumed == 200_001
