"""Parametric access-pattern generators.

Each generator returns an infinite :class:`~repro.trace.chunks.ChunkTrace`
of :class:`~repro.cpu.core.TraceRecord` tuples. All randomness flows
through a ``numpy.random.Generator`` seeded by the caller, so every trace
is reproducible. Internally the patterns are *chunk producers*: they draw
and synthesize whole column arrays per chunk, which the functional
pre-warm consumes directly (:meth:`ChunkTrace.take_arrays`) while record
consumers decode lazily. The RNG draw sequence per chunk is part of each
pattern's contract — it must not depend on how the trace is consumed.

A producer is a plain iterator object, not a generator function: it
holds its RNG and the few values its pattern carries from chunk to
chunk (a sweep position, per-stream positions, a mixed trace's next
phase) as fields. That makes it picklable, so a snapshot or warm image
stores a trace's exact position and unpickling it continues the stream
without regenerating what was already read.

Pattern vocabulary (matched to the paper's workload discussion):

* ``streaming_trace`` — sequential lines; very high row-buffer locality,
  prefetcher-friendly (paper's *streaming* microbenchmark / STREAM suite).
* ``random_trace`` — uniform random lines over a footprint; minimal
  row-buffer locality (paper's *random* microbenchmark, mcf/milc-like).
* ``strided_trace`` — fixed non-unit stride; regular but row-unfriendly.
* ``hotset_trace`` — most accesses revisit a small hot set of rows; high
  in-DRAM locality, the behaviour CROW-cache exploits (h264-like).
* ``mixed_trace`` — phase-interleaved combination of the above.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.cpu.core import TraceRecord
from repro.errors import ConfigError
from repro.trace.chunks import Chunk, ChunkTrace

__all__ = [
    "streaming_trace",
    "random_trace",
    "strided_trace",
    "hotset_trace",
    "multistream_trace",
    "mixed_trace",
]

LINE = 64
_CHUNK = 1024

#: ``arange(_CHUNK)``, shared read-only by the producers that index a chunk.
_INDEX = np.arange(_CHUNK)
_INDEX.flags.writeable = False


def _bubbles(rng: np.random.Generator, mean: float, count: int) -> np.ndarray:
    """Per-access non-memory instruction counts (>= 0, mean ``mean``)."""
    if mean <= 0:
        return np.zeros(count, dtype=np.int64)
    return rng.poisson(mean, size=count).astype(np.int64)


def _check(footprint_bytes: int, bubbles_mean: float, write_fraction: float):
    if footprint_bytes < LINE:
        raise ConfigError("footprint must hold at least one line")
    if bubbles_mean < 0:
        raise ConfigError("bubbles_mean must be non-negative")
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigError("write_fraction must be a probability")


class _Producer:
    """An iterator of :data:`~repro.trace.chunks.Chunk` tuples drawn from
    one seeded RNG, with the fields every single pattern shares."""

    __slots__ = ("rng", "bubbles_mean", "write_fraction", "base_vaddr")

    def __init__(self, bubbles_mean, write_fraction, base_vaddr, seed):
        self.rng = np.random.default_rng(seed)
        self.bubbles_mean = bubbles_mean
        self.write_fraction = write_fraction
        self.base_vaddr = base_vaddr

    def __iter__(self) -> "_Producer":
        return self


def streaming_trace(
    footprint_bytes: int,
    bubbles_mean: float = 24.0,
    write_fraction: float = 0.0,
    base_vaddr: int = 0x1000_0000,
    seed: int = 1,
) -> Iterator[TraceRecord]:
    """Sequential line-by-line sweep over the footprint, repeated forever."""
    _check(footprint_bytes, bubbles_mean, write_fraction)
    return ChunkTrace(
        _Streaming(
            footprint_bytes, bubbles_mean, write_fraction, base_vaddr, seed
        )
    )


class _Streaming(_Producer):
    __slots__ = ("lines", "pcs", "position")

    def __init__(
        self, footprint_bytes, bubbles_mean, write_fraction, base_vaddr, seed
    ) -> None:
        super().__init__(bubbles_mean, write_fraction, base_vaddr, seed)
        self.lines = footprint_bytes // LINE
        self.pcs = np.full(_CHUNK, 0x400000, dtype=np.int64)
        self.position = 0

    def __next__(self) -> Chunk:
        rng = self.rng
        bubbles = _bubbles(rng, self.bubbles_mean, _CHUNK)
        writes = rng.random(_CHUNK) < self.write_fraction
        position = self.position
        vaddrs = (
            self.base_vaddr
            + (np.arange(position, position + _CHUNK) % self.lines) * LINE
        )
        self.position = position + _CHUNK
        return bubbles, vaddrs, writes, self.pcs


def random_trace(
    footprint_bytes: int,
    bubbles_mean: float = 24.0,
    write_fraction: float = 0.25,
    base_vaddr: int = 0x2000_0000,
    seed: int = 2,
) -> Iterator[TraceRecord]:
    """Uniform random line accesses over the footprint."""
    _check(footprint_bytes, bubbles_mean, write_fraction)
    return ChunkTrace(
        _Random(footprint_bytes, bubbles_mean, write_fraction, base_vaddr, seed)
    )


class _Random(_Producer):
    __slots__ = ("lines",)

    def __init__(
        self, footprint_bytes, bubbles_mean, write_fraction, base_vaddr, seed
    ) -> None:
        super().__init__(bubbles_mean, write_fraction, base_vaddr, seed)
        self.lines = footprint_bytes // LINE

    def __next__(self) -> Chunk:
        rng = self.rng
        bubbles = _bubbles(rng, self.bubbles_mean, _CHUNK)
        targets = rng.integers(0, self.lines, size=_CHUNK)
        writes = rng.random(_CHUNK) < self.write_fraction
        pcs = rng.integers(0, 64, size=_CHUNK)
        return (
            bubbles,
            self.base_vaddr + targets * LINE,
            writes,
            0x500000 + pcs * 4,
        )


def strided_trace(
    footprint_bytes: int,
    stride_bytes: int = 256,
    bubbles_mean: float = 24.0,
    write_fraction: float = 0.1,
    base_vaddr: int = 0x3000_0000,
    seed: int = 3,
) -> Iterator[TraceRecord]:
    """Constant-stride sweep (regular, detectable by the RPT prefetcher)."""
    _check(footprint_bytes, bubbles_mean, write_fraction)
    if stride_bytes < LINE or stride_bytes % LINE:
        raise ConfigError("stride must be a multiple of the line size")
    return ChunkTrace(
        _Strided(
            footprint_bytes, stride_bytes, bubbles_mean, write_fraction,
            base_vaddr, seed,
        )
    )


class _Strided(_Producer):
    __slots__ = ("footprint_bytes", "stride_bytes", "pcs", "position")

    def __init__(
        self, footprint_bytes, stride_bytes, bubbles_mean, write_fraction,
        base_vaddr, seed,
    ) -> None:
        super().__init__(bubbles_mean, write_fraction, base_vaddr, seed)
        self.footprint_bytes = footprint_bytes
        self.stride_bytes = stride_bytes
        self.pcs = np.full(_CHUNK, 0x600000, dtype=np.int64)
        self.position = 0

    def __next__(self) -> Chunk:
        rng = self.rng
        bubbles = _bubbles(rng, self.bubbles_mean, _CHUNK)
        writes = rng.random(_CHUNK) < self.write_fraction
        position = self.position
        vaddrs = (
            self.base_vaddr
            + (np.arange(position, position + _CHUNK) * self.stride_bytes)
            % self.footprint_bytes
        )
        self.position = position + _CHUNK
        return bubbles, vaddrs, writes, self.pcs


def hotset_trace(
    footprint_bytes: int,
    hot_bytes: int = 256 * 1024,
    hot_fraction: float = 0.9,
    bubbles_mean: float = 24.0,
    write_fraction: float = 0.2,
    base_vaddr: int = 0x4000_0000,
    seed: int = 4,
) -> Iterator[TraceRecord]:
    """Accesses concentrate on a hot set; the remainder roam the footprint.

    The hot set is visited with spatial runs (several consecutive lines per
    touch), producing the high row reuse CROW-cache caches.
    """
    _check(footprint_bytes, bubbles_mean, write_fraction)
    if not 0.0 <= hot_fraction <= 1.0:
        raise ConfigError("hot_fraction must be a probability")
    if hot_bytes < LINE or hot_bytes > footprint_bytes:
        raise ConfigError("hot_bytes must be within the footprint")
    return ChunkTrace(
        _Hotset(
            footprint_bytes, hot_bytes, hot_fraction, bubbles_mean,
            write_fraction, base_vaddr, seed,
        )
    )


class _Hotset(_Producer):
    __slots__ = ("hot_lines", "all_lines", "hot_fraction")

    def __init__(
        self, footprint_bytes, hot_bytes, hot_fraction, bubbles_mean,
        write_fraction, base_vaddr, seed,
    ) -> None:
        super().__init__(bubbles_mean, write_fraction, base_vaddr, seed)
        self.hot_lines = hot_bytes // LINE
        self.all_lines = footprint_bytes // LINE
        self.hot_fraction = hot_fraction

    def __next__(self) -> Chunk:
        rng = self.rng
        hot_lines = self.hot_lines
        all_lines = self.all_lines
        bubbles = _bubbles(rng, self.bubbles_mean, _CHUNK)
        hot = rng.random(_CHUNK) < self.hot_fraction
        targets = rng.integers(0, 1 << 62, size=_CHUNK)
        writes = rng.random(_CHUNK) < self.write_fraction
        run = rng.integers(2, 8, size=_CHUNK)
        # One chunk draw expands to a variable-length record chunk: hot
        # picks emit a spatial run of `run` consecutive hot lines, cold
        # picks emit a single line anywhere in the footprint.
        lengths = np.where(hot, run, 1)
        rep = np.repeat(_INDEX, lengths)
        offsets = np.arange(len(rep)) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        hot_rep = hot[rep]
        lines = np.where(
            hot_rep,
            (targets % hot_lines)[rep] + offsets,
            (targets % all_lines)[rep],
        ) % np.where(hot_rep, hot_lines, all_lines)
        return (
            bubbles[rep],
            self.base_vaddr + lines * LINE,
            writes[rep],
            np.where(hot_rep, 0x700000, 0x700100),
        )


def multistream_trace(
    footprint_bytes: int,
    streams: int = 8,
    bubbles_mean: float = 24.0,
    write_fraction: float = 0.2,
    restart_period: int = 0,
    base_vaddr: int = 0x5000_0000,
    seed: int = 5,
) -> Iterator[TraceRecord]:
    """Several sequential streams interleaved at random.

    This is the access structure that gives real applications their high
    *in-DRAM* locality (the property CROW-cache exploits): each stream
    sweeps lines sequentially, but because many streams are in flight the
    bank-level access pattern keeps closing and re-opening each stream's
    current row — every re-open is a potential CROW-table hit. Video
    codecs (reference frames), graph frontiers and database scans all look
    like this. ``restart_period`` > 0 rewinds a random stream to its start
    every that-many accesses, adding longer-range row reuse.
    """
    _check(footprint_bytes, bubbles_mean, write_fraction)
    if streams < 1:
        raise ConfigError("streams must be >= 1")
    region_lines = footprint_bytes // LINE // streams
    if region_lines < 1:
        raise ConfigError("footprint too small for the stream count")
    return ChunkTrace(
        _Multistream(
            streams, bubbles_mean, write_fraction, restart_period,
            base_vaddr, seed, region_lines,
        )
    )


class _Multistream(_Producer):
    __slots__ = ("streams", "restart_period", "region_lines", "positions",
                 "count")

    def __init__(
        self, streams, bubbles_mean, write_fraction, restart_period,
        base_vaddr, seed, region_lines,
    ) -> None:
        super().__init__(bubbles_mean, write_fraction, base_vaddr, seed)
        self.streams = streams
        self.restart_period = restart_period
        self.region_lines = region_lines
        self.positions = np.zeros(streams, dtype=np.int64)
        self.count = 0

    def __next__(self) -> Chunk:
        rng = self.rng
        streams = self.streams
        region_lines = self.region_lines
        base_vaddr = self.base_vaddr
        positions = self.positions
        bubbles = _bubbles(rng, self.bubbles_mean, _CHUNK)
        picks = rng.integers(0, streams, size=_CHUNK)
        writes = rng.random(_CHUNK) < self.write_fraction
        restart_period = self.restart_period
        if restart_period:
            # Rewinds interleave RNG draws with record synthesis, so this
            # path stays scalar to preserve the exact draw order; the
            # per-chunk columns are packed from the scalar results.
            count = self.count
            picks_list = picks.tolist()
            vaddr_list = []
            pc_list = []
            for i in range(_CHUNK):
                stream = picks_list[i]
                line = int(positions[stream]) % region_lines
                positions[stream] += 1
                count += 1
                if count % restart_period == 0:
                    positions[int(rng.integers(0, streams))] = 0
                vaddr_list.append(
                    base_vaddr + (stream * region_lines + line) * LINE
                )
                pc_list.append(0x800000 + stream * 4)
            self.count = count
            return (
                bubbles,
                np.asarray(vaddr_list, dtype=np.int64),
                writes,
                np.asarray(pc_list, dtype=np.int64),
            )
        # Vectorized path: record i of stream s reads line
        # positions[s] + (occurrences of s earlier in the chunk), i.e. a
        # per-stream cumulative count — computed with a stable argsort.
        order = np.argsort(picks, kind="stable")
        sorted_picks = picks[order]
        boundary = np.empty(_CHUNK, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_picks[1:], sorted_picks[:-1], out=boundary[1:])
        ranks = _INDEX - np.maximum.accumulate(np.where(boundary, _INDEX, 0))
        cumcount = np.empty(_CHUNK, dtype=np.int64)
        cumcount[order] = ranks
        lines = (positions[picks] + cumcount) % region_lines
        positions += np.bincount(picks, minlength=streams)
        return (
            bubbles,
            base_vaddr + (picks * region_lines + lines) * LINE,
            writes,
            0x800000 + picks * 4,
        )


def mixed_trace(
    phases: "list[tuple[Iterator[TraceRecord], int]]",
) -> Iterator[TraceRecord]:
    """Interleave ``ChunkTrace`` phases round-robin, each for its length."""
    if not phases:
        raise ConfigError("mixed_trace needs at least one phase")
    for source, _ in phases:
        if not isinstance(source, ChunkTrace):
            raise ConfigError(
                f"mixed_trace phases must be ChunkTrace objects, got "
                f"{type(source).__name__}"
            )
    return ChunkTrace(_Mixed(list(phases)))


class _Mixed:
    """Round-robin phase segments, gathered into chunks of >= ``_CHUNK``.

    ``phase`` is the index of the phase the next chunk starts with. A
    chunk is returned as soon as it is full, so no segment is ever
    pending between calls. ``done`` is set once a (finite) phase ran
    dry; the trace then ends.
    """

    __slots__ = ("phases", "phase", "done")

    def __init__(self, phases) -> None:
        self.phases = phases
        self.phase = 0
        self.done = False

    def __iter__(self) -> "_Mixed":
        return self

    def __next__(self) -> Chunk:
        if self.done:
            raise StopIteration
        phases = self.phases
        phase = self.phase
        # Phase segments accumulate until a full chunk is ready, keeping
        # the per-chunk overhead bounded even for single-record phase
        # lengths.
        parts: list[Chunk] = []
        size = 0
        while True:
            source, length = phases[phase]
            phase = (phase + 1) % len(phases)
            segment = source.take_columns(length)
            got = len(segment[1])
            if got:
                parts.append(segment)
                size += got
            if got < length:
                # A (finite) child ran dry: flush what exists and stop.
                self.done = True
                if parts:
                    return _concat(parts)
                raise StopIteration
            if size >= _CHUNK:
                self.phase = phase
                return _concat(parts)


def _concat(parts: "list[Chunk]") -> Chunk:
    if len(parts) == 1:
        return parts[0]
    return tuple(
        np.concatenate([part[i] for part in parts]) for i in range(4)
    )
