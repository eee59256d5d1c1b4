"""Resumable trace streams with provenance.

:class:`TraceStream` wraps a workload's trace iterator with the three
facts a snapshot needs to rebuild it — the workload name, the seed, and
how many records have been consumed. A stream pickles as those three
facts (:meth:`TraceStream.__reduce__`); unpickling replays the (cheap,
deterministic) synthetic generator and fast-forwards past the consumed
prefix at chunk granularity, so a snapshot never stores trace records.
Warm images store the same facts as a plain :meth:`state_dict` cursor.
The wrapped iterator is the workload's
:class:`~repro.trace.chunks.ChunkTrace`.

``System`` also accepts bare ``ChunkTrace`` objects; only snapshotting
requires the provenance this wrapper carries (``save_snapshot`` raises a
structured error otherwise). ``run_workload``/``run_mix`` and the check scenarios
construct :class:`TraceStream` objects so every supported entry point is
snapshot-ready by default.
"""

from __future__ import annotations

from typing import Iterator

from repro.cpu.core import TraceRecord
from repro.errors import ConfigError

__all__ = ["TraceStream"]


class TraceStream:
    """A workload trace iterator that knows how to rebuild itself.

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

    def __reduce__(self):
        """Pickle as ``(workload, seed, consumed)``: the generator is
        rebuilt and fast-forwarded on load."""
        return TraceStream.from_state_dict, (self.state_dict(),)

    # ------------------------------------------------------------------
    # Warm-image cursor
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "workload": self.workload_name,
            "seed": self.seed,
            "consumed": self.consumed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Rebuild the generator and fast-forward past the consumed prefix."""
        if state["workload"] != self.workload_name or state["seed"] != self.seed:
            raise ConfigError(
                f"trace stream mismatch: snapshot holds "
                f"{state['workload']!r} seed {state['seed']}, stream is "
                f"{self.workload_name!r} seed {self.seed}"
            )
        from repro.trace.workloads import workload

        self._it = workload(self.workload_name).trace(self.seed)
        consumed = state["consumed"]
        # Chunk-level fast-forward: no record decode at all.
        self._it.skip(consumed)
        self.consumed = consumed

    @classmethod
    def from_state_dict(cls, state: dict) -> "TraceStream":
        stream = cls(state["workload"], state["seed"])
        stream.load_state_dict(state)
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceStream({self.workload_name!r}, seed={self.seed}, "
            f"consumed={self.consumed})"
        )
