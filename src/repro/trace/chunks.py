"""Array-chunk trace production.

The synthetic generators in :mod:`repro.trace.synth` draw their
randomness in whole-chunk numpy arrays. :class:`ChunkTrace` keeps those
arrays visible to bulk consumers instead of flattening them into Python
records eagerly:

* record iteration (``next()``) materializes records lazily, one chunk
  at a time, exactly as the old per-record generators did;
* :meth:`take_arrays` hands the (vaddr, is_write) columns of the next
  ``n`` records to vectorized consumers — the functional pre-warm
  kernel — without ever constructing :class:`TraceRecord` objects;
* pickling stores the producer (its RNG and pattern state), the
  current chunk and the position in it, so a snapshot or warm image
  restores the trace exactly where it stood: unpickling regenerates
  nothing, and a stored trace is at most one chunk larger than its
  producer. The decoded-list cache is never stored; it is rebuilt on
  the next record read.

Both views consume the *same* underlying chunk stream, so the RNG
draw sequence — and therefore the trace content — is identical no matter
how a trace is consumed. That equivalence is what lets the vectorized
pre-warm leave exactly the state a record-at-a-time warm loop would.

A chunk is a ``(bubbles, vaddrs, writes, pcs)`` tuple of equal-length
1-D arrays (``int64``, ``int64``, ``bool``, ``int64``). Chunks may have
any positive length and the stream may be finite.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.cpu.core import TraceRecord

__all__ = ["ChunkTrace", "Chunk"]

#: One decoded trace chunk: (bubbles, vaddrs, writes, pcs) column arrays.
Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class ChunkTrace:
    """Iterator of :class:`TraceRecord` over an array-chunk producer.

    ``chunks`` is an iterator of :data:`Chunk` tuples; the trace pickles
    when it does (the :mod:`~repro.trace.synth` producers and list
    iterators do). Decoded Python lists are cached per chunk, and only
    built when a record-level view actually needs them — the array
    views never pay for the decode.
    """

    __slots__ = ("_chunks", "_arrays", "_lists", "_pos")

    def __init__(self, chunks: Iterator[Chunk]) -> None:
        self._chunks = chunks
        self._arrays: Chunk | None = None
        self._lists: tuple | None = None
        self._pos = 0

    def __getstate__(self) -> dict:
        # The decoded lists are a cache of ``_arrays``: never stored.
        return {"_chunks": self._chunks, "_arrays": self._arrays,
                "_pos": self._pos}

    def __setstate__(self, state: dict) -> None:
        self._chunks = state["_chunks"]
        self._arrays = state["_arrays"]
        self._pos = state["_pos"]
        self._lists = None

    # ------------------------------------------------------------------
    # Record-level view
    # ------------------------------------------------------------------
    def __iter__(self) -> "ChunkTrace":
        return self

    def _advance(self) -> bool:
        """Pull the next chunk; False when the producer is exhausted."""
        try:
            self._arrays = next(self._chunks)
        except StopIteration:
            self._arrays = None
            self._lists = None
            self._pos = 0
            return False
        self._lists = None
        self._pos = 0
        return True

    def __next__(self) -> TraceRecord:
        arrays = self._arrays
        if arrays is None or self._pos >= len(arrays[1]):
            if not self._advance():
                raise StopIteration
            arrays = self._arrays
        lists = self._lists
        if lists is None:
            # One tolist per column per chunk: numpy scalars become plain
            # Python ints/bools here, so records never leak numpy types
            # into simulator state (snapshots must stay byte-stable).
            lists = self._lists = tuple(column.tolist() for column in arrays)
        pos = self._pos
        self._pos = pos + 1
        return TraceRecord(
            lists[0][pos], lists[1][pos], lists[2][pos], lists[3][pos]
        )

    # ------------------------------------------------------------------
    # Array-level views
    # ------------------------------------------------------------------
    def take_arrays(self, n: int) -> "tuple[np.ndarray, np.ndarray]":
        """The (vaddrs, writes) columns of the next ``n`` records.

        Returns shorter arrays only when the chunk stream runs dry.
        Consumes exactly the records it returns — interleaving with the
        record-level view is well-defined.
        """
        vaddr_parts: list[np.ndarray] = []
        write_parts: list[np.ndarray] = []
        got = 0
        while got < n:
            arrays = self._arrays
            if arrays is None or self._pos >= len(arrays[1]):
                if not self._advance():
                    break
                arrays = self._arrays
            pos = self._pos
            stop = min(pos + (n - got), len(arrays[1]))
            vaddr_parts.append(arrays[1][pos:stop])
            write_parts.append(arrays[2][pos:stop])
            got += stop - pos
            self._pos = stop
        if not vaddr_parts:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
            )
        if len(vaddr_parts) == 1:
            return vaddr_parts[0], write_parts[0]
        return np.concatenate(vaddr_parts), np.concatenate(write_parts)

    def take_columns(self, n: int) -> Chunk:
        """All four columns of the next ``n`` records (mixed-trace glue)."""
        parts: list[Chunk] = []
        got = 0
        while got < n:
            arrays = self._arrays
            if arrays is None or self._pos >= len(arrays[1]):
                if not self._advance():
                    break
                arrays = self._arrays
            pos = self._pos
            stop = min(pos + (n - got), len(arrays[1]))
            parts.append(tuple(column[pos:stop] for column in arrays))
            got += stop - pos
            self._pos = stop
        if not parts:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
                np.empty(0, dtype=np.int64),
            )
        if len(parts) == 1:
            return parts[0]
        return tuple(
            np.concatenate([part[i] for part in parts]) for i in range(4)
        )
