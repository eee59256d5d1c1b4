"""Trace streams with provenance.

:class:`TraceStream` wraps a workload's trace iterator with the three
facts a snapshot header names — the workload name, the seed, and how
many records have been consumed. The wrapped iterator is the workload's
:class:`~repro.trace.chunks.ChunkTrace`, whose producer is a picklable
iterator object (:mod:`repro.trace.synth`), so a stream pickles as it
stands: the RNG, the pattern's position state, the current chunk and
the position in it. Unpickling continues the stream at exactly that
record without regenerating the consumed prefix. A snapshot or warm
image therefore stores at most one chunk of records per ``ChunkTrace``
(1,024 records, or up to 7,168 for a hot-set pattern's variable-length
chunk): one per core, plus one per phase of a mixed workload.

``System`` also accepts bare ``ChunkTrace`` objects; only snapshotting
requires the provenance this wrapper carries (``save_snapshot`` raises a
structured error otherwise). ``run_workload``/``run_mix`` and the check scenarios
construct :class:`TraceStream` objects so every supported entry point is
snapshot-ready by default.
"""

from __future__ import annotations

from typing import Iterator

from repro.cpu.core import TraceRecord

__all__ = ["TraceStream"]


class TraceStream:
    """A workload trace iterator that knows its workload, seed and position.

    Iteration protocol matches the wrapped :class:`~repro.trace.chunks.
    ChunkTrace` (``next()`` yields :class:`~repro.cpu.core.TraceRecord`);
    :meth:`take_arrays` hands the pre-warm kernel whole columns while the
    consumed count stays exact.
    """

    __slots__ = ("workload_name", "seed", "consumed", "_it")

    def __init__(
        self,
        workload_name: str,
        seed: int,
        _iterator: Iterator[TraceRecord] | None = None,
    ) -> None:
        self.workload_name = workload_name
        self.seed = seed
        self.consumed = 0
        if _iterator is None:
            from repro.trace.workloads import workload

            _iterator = workload(workload_name).trace(seed)
        self._it = _iterator

    def __iter__(self) -> "TraceStream":
        return self

    def __next__(self) -> TraceRecord:
        record = next(self._it)
        self.consumed += 1
        return record

    def take_arrays(self, n):
        """The (vaddrs, writes) columns of the next ``n`` records."""
        vaddrs, writes = self._it.take_arrays(n)
        self.consumed += len(vaddrs)
        return vaddrs, writes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceStream({self.workload_name!r}, seed={self.seed}, "
            f"consumed={self.consumed})"
        )
