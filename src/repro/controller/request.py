"""Memory request representation."""

from __future__ import annotations

import enum
from typing import Callable

from repro.dram.address import DramAddress

__all__ = ["RequestType", "MemRequest"]


class RequestType(enum.IntEnum):
    """Read or write request."""
    READ = 0
    WRITE = 1


class MemRequest:
    """One cache-line request from the processor side.

    ``callback(request, finish_cycle)`` fires when the data transfer
    completes (reads) or the write is accepted by the device. Prefetch
    requests are ordinary reads whose completion nobody blocks on.
    """

    __slots__ = (
        "type",
        "address",
        "location",
        "core_id",
        "arrival",
        "callback",
        "is_prefetch",
        "completed_at",
        "sched_version",
        "sched_row",
        "sched_slot",
        "sched_kind",
        "sched_bound",
    )

    def __init__(
        self,
        type: RequestType,
        address: int,
        location: DramAddress,
        core_id: int = 0,
        arrival: int = 0,
        callback: Callable[["MemRequest", int], None] | None = None,
        is_prefetch: bool = False,
    ) -> None:
        self.type = type
        self.address = address
        self.location = location
        self.core_id = core_id
        self.arrival = arrival
        self.callback = callback
        self.is_prefetch = is_prefetch
        self.completed_at: int | None = None
        #: Controller-owned scheduling memo, valid while
        #: ``sched_version`` equals the channel's version of this
        #: request's bank (-1: resolve from scratch on the next pass):
        #: the service row, the bank slot holding it, the next command's
        #: class and that slot's readiness bound for it.
        self.sched_version = -1
        self.sched_row = None
        self.sched_slot = None
        self.sched_kind = 0
        self.sched_bound = 0

    def __call__(self, finish: int) -> None:
        """Fire the completion callback (the request is its own event).

        The controller schedules the request object itself on the system
        event heap; at the finish cycle the heap calls it with that
        cycle. Keeping the event a plain object (not a closure over
        ``finish``) is what makes the event heap serializable.
        """
        self.callback(self, finish)

    @property
    def latency(self) -> int | None:
        """Arrival-to-completion latency in memory cycles, once finished."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemRequest({self.type.name}, 0x{self.address:x}, "
            f"bank={self.location.bank}, row={self.location.row}, "
            f"core={self.core_id}, t={self.arrival})"
        )
