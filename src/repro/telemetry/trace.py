"""Low-overhead command-level event tracing.

:class:`EventTrace` is a fixed-capacity ring buffer of DRAM command
events — ``(tick, command kind, bank, rows, detail)`` — cheap enough to
leave attached during full runs: recording is one tuple append plus an
index increment, and when the ring wraps, old events are overwritten
(``dropped`` counts them). A trace is **zero-cost when disabled**:
nothing is attached to the channel's observer bus and no event is
constructed.

The ``detail`` slot carries the mechanism decision for activations
(``ACT`` = conventional, ``ACT_T`` = CROW-table hit pair-activation,
``ACT_C`` = duplicate-on-miss) and restoration state for precharges.
Ticks are simulation cycles — no wall-clock anywhere, so exports are
byte-identical across runs of the same configuration and seed.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["EventTrace"]

#: Export field order (one event tuple maps to these keys).
FIELDS = ("tick", "cmd", "bank", "row", "detail")


class EventTrace:
    """Bounded ring buffer of ``(tick, cmd, bank, row, detail)`` events."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ConfigError("trace capacity must be >= 1")
        self.capacity = capacity
        self._ring: list[tuple] = [None] * capacity  # type: ignore[list-item]
        self._next = 0
        self.recorded = 0

    # -- recording (hot path) -------------------------------------------

    def record(
        self,
        tick: int,
        cmd: str,
        bank: "int | None" = None,
        row: "str | None" = None,
        detail: "str | None" = None,
    ) -> None:
        """Append one event, overwriting the oldest when full."""
        self._ring[self._next] = (tick, cmd, bank, row, detail)
        self._next = (self._next + 1) % self.capacity
        self.recorded += 1

    @staticmethod
    def _row_text(row) -> str:
        """Compact row spelling: ``s<subarray>:r<index>`` / ``:c<way>``."""
        kind = "c" if getattr(row.kind, "name", "") == "COPY" else "r"
        return f"s{row.subarray}:{kind}{row.index}"

    def record_command(self, now: int, command) -> None:
        """``DramChannel`` command observer (see ``DramChannel.attach``)."""
        rows = getattr(command, "rows", None)
        row = None
        detail = None
        if rows:
            row = self._row_text(rows[0])
            if len(rows) > 1:
                detail = f"pair:{self._row_text(rows[1])}"
        elif getattr(command, "col", None) is not None:
            row = f"col:{command.col}"
        self.record(now, command.kind.name, command.bank, row, detail)

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring wrapped."""
        return max(0, self.recorded - self.capacity)

    def reset(self) -> None:
        """Drop everything (warm-up boundary)."""
        self._ring = [None] * self.capacity  # type: ignore[list-item]
        self._next = 0
        self.recorded = 0

    # -- export ----------------------------------------------------------

    def events(self) -> list[tuple]:
        """Events in recording order (oldest surviving first)."""
        if self.recorded <= self.capacity:
            return [e for e in self._ring[: self._next]]
        return (
            self._ring[self._next:] + self._ring[: self._next]
        )

    def to_dicts(self) -> list[dict]:
        """Events as plain dicts (JSON-ready, deterministic)."""
        return [dict(zip(FIELDS, event)) for event in self.events()]

    def export(self) -> dict:
        """Summary + events, embeddable in a telemetry export."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": self.to_dicts(),
        }
