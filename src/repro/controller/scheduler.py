"""Request scheduling policies.

The paper's configuration (Table 2) uses FR-FCFS-Cap [81]: the classic
first-ready, first-come-first-served policy, with an upper limit on how
many column accesses an open row may service while older requests to other
rows wait — which improves fairness and, on average, performance over
plain FR-FCFS.

A policy is data: its ``hit_cap``. A queued request is *promoted* when it
is a row hit and its bank's hit streak (column accesses since the row
opened) is below ``hit_cap``; promoted requests rank first, then the
rest, each group in arrival order. ``hit_cap`` 0 is plain FCFS, an
unbounded cap is FR-FCFS, and ``cap`` is FR-FCFS-Cap. The controller
applies this order inline in one scan of its queue and issues the first
candidate whose next DRAM command is ready; :meth:`Scheduler.ranked` is
the same order as a standalone reference. A policy that needs a
different order cannot be expressed by overriding ``ranked`` — the
controller rejects such a scheduler rather than silently ignoring it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from repro.controller.request import MemRequest
from repro.errors import ConfigError

__all__ = ["Scheduler", "FrFcfs", "FrFcfsCap"]


class Scheduler:
    """Base scheduling policy: FCFS (no row hit is promoted)."""

    name = "fcfs"
    #: Row hits rank ahead of older requests while their bank's hit
    #: streak is below this cap (0: never; ``math.inf``: always).
    hit_cap: float = 0

    def ranked(
        self,
        requests: list[MemRequest],
        is_row_hit: Callable[[MemRequest], bool],
        bank_hit_streak: Callable[[MemRequest], int],
    ) -> Iterator[MemRequest]:
        """Yield requests in descending priority under ``hit_cap``.

        ``requests`` is maintained in arrival order by the controller.
        The controller does not call this: its scheduling pass applies
        the same order inline (see the module docstring).
        """
        cap = self.hit_cap
        demoted = []
        for request in requests:
            if cap and is_row_hit(request) and bank_hit_streak(request) < cap:
                yield request
            else:
                demoted.append(request)
        yield from demoted


class FrFcfs(Scheduler):
    """First-ready FCFS: row hits first (by age), then the rest (by age)."""

    name = "fr-fcfs"
    hit_cap = math.inf


class FrFcfsCap(Scheduler):
    """FR-FCFS with a cap on consecutive row hits per activation [81].

    Once a bank has serviced ``cap`` column accesses from its open row
    while other requests wait, further hits to that row lose their
    priority boost, letting older requests close the row.
    """

    name = "fr-fcfs-cap"

    def __init__(self, cap: int = 4) -> None:
        if cap < 1:
            raise ConfigError(f"cap must be >= 1, got {cap}")
        self.hit_cap = cap
