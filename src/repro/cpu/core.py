"""Trace-driven core model.

Table 2 configuration: 4 GHz, 4-wide issue, 128-entry instruction window,
8 MSHRs per core. The simulator ticks at the DRAM bus clock (1600 MHz), so
each tick gives the core ``4 * 4000/1600 = 10`` issue/retire slots.

The window is modelled Ramulator-style: non-memory instructions ("bubbles")
flow through at the issue width; loads occupy a window slot until their
data returns; stores retire immediately (write-allocate fills happen in
the background but do consume MSHRs). The core stalls when the window is
full, when MSHRs run out, or when the memory controller queue rejects a
request. Long all-bubble stretches are fast-forwarded arithmetically,
which is exact because no memory activity is in flight.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator, NamedTuple

from repro.errors import ConfigError

__all__ = ["TraceRecord", "CoreConfig", "Core", "IDLE"]

IDLE = 1 << 62


class TraceRecord(NamedTuple):
    """One trace event: ``bubbles`` non-memory instructions followed by a
    memory access (the access itself counts as one instruction)."""

    bubbles: int
    vaddr: int
    is_write: bool
    pc: int


class CoreConfig:
    """Core microarchitecture parameters (Table 2 defaults)."""

    def __init__(
        self,
        issue_width: int = 4,
        window_size: int = 128,
        mshrs: int = 8,
        cpu_clock_mhz: float = 4000.0,
        mem_clock_mhz: float = 1600.0,
    ) -> None:
        if issue_width < 1 or window_size < 1 or mshrs < 1:
            raise ConfigError("core parameters must be >= 1")
        if cpu_clock_mhz < mem_clock_mhz:
            raise ConfigError("CPU clock must be >= memory clock")
        self.issue_width = issue_width
        self.window_size = window_size
        self.mshrs = mshrs
        self.cpu_clock_mhz = cpu_clock_mhz
        self.mem_clock_mhz = mem_clock_mhz

    @property
    def clock_ratio(self) -> float:
        """CPU clock cycles per memory clock cycle."""
        return self.cpu_clock_mhz / self.mem_clock_mhz

    @property
    def slots_per_tick(self) -> int:
        """Issue/retire slots per memory-clock tick."""
        return max(1, round(self.issue_width * self.clock_ratio))


class _MemOp:
    """One in-flight memory instruction and its completion callback.

    The op itself is the ``on_complete`` callable handed to the memory
    port — call it with the finish cycle and it retires/wakes its core.
    Being a plain object with value state (rather than a closure) is what
    lets :mod:`repro.snapshot` pickle in-flight accesses.
    """

    __slots__ = ("core", "is_store", "counts_mshr", "done")

    def __init__(self, core: "Core", is_store: bool = False) -> None:
        self.core = core
        self.is_store = is_store
        self.counts_mshr = False
        self.done = False

    def __call__(self, finish: int) -> None:
        self.done = True
        core = self.core
        if self.counts_mshr:
            core.outstanding -= 1
        core.notify(finish)


class Core:
    """One trace-driven core; ``port`` is the system's memory port."""

    __slots__ = (
        "core_id",
        "trace",
        "port",
        "config",
        "_slots",
        "_window",
        "_occupancy",
        "_bubbles_left",
        "_pending",
        "_trace_done",
        "outstanding",
        "retired",
        "next_wake",
        "mshr_stalls",
        "measure_start_cycle",
        "measure_start_retired",
        "target_instructions",
        "finish_cycle",
    )

    def __init__(
        self,
        core_id: int,
        trace: Iterator[TraceRecord],
        port,
        config: CoreConfig | None = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.port = port
        self.config = config if config is not None else CoreConfig()
        self._slots = self.config.slots_per_tick

        self._window: deque = deque()    # _MemOp | [bubble_count] entries
        self._occupancy = 0
        self._bubbles_left = 0
        self._pending: TraceRecord | None = None
        self._trace_done = False
        self.outstanding = 0

        self.retired = 0
        self.next_wake = 0
        #: Issue attempts rejected because every MSHR was in flight
        #: (telemetry: memory-level-parallelism pressure).
        self.mshr_stalls = 0
        # Measurement bookkeeping (warm-up support).
        self.measure_start_cycle: int | None = None
        self.measure_start_retired = 0
        self.target_instructions: int | None = None
        self.finish_cycle: int | None = None

    # ------------------------------------------------------------------
    # Measurement control
    # ------------------------------------------------------------------
    def begin_measurement(self, now: int, target_instructions: int) -> None:
        """End warm-up: measure IPC over the next ``target_instructions``."""
        self.measure_start_cycle = now
        self.measure_start_retired = self.retired
        self.target_instructions = target_instructions
        self.finish_cycle = None
        self.mshr_stalls = 0

    @property
    def measured_instructions(self) -> int:
        """Instructions retired since measurement began."""
        return self.retired - self.measure_start_retired

    @property
    def done(self) -> bool:
        """Whether this core finished its measured quota (or its trace)."""
        if self.target_instructions is not None:
            return self.finish_cycle is not None
        return self._trace_done and not self._window and self.outstanding == 0

    def ipc(self, now: int | None = None) -> float:
        """Instructions per *CPU* cycle over the measurement region."""
        if self.measure_start_cycle is None:
            return 0.0
        end = self.finish_cycle if self.finish_cycle is not None else now
        if end is None or end <= self.measure_start_cycle:
            return 0.0
        cpu_cycles = (end - self.measure_start_cycle) * self.config.clock_ratio
        return self.measured_instructions / cpu_cycles

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def notify(self, now: int) -> None:
        """Wake the core (a memory completion callback fired)."""
        self.next_wake = min(self.next_wake, now)

    def tick(self, now: int) -> int:
        """Advance one memory cycle; returns the next useful wake time."""
        slots = self._slots
        progress = 0

        # Fast-forward: window empty, nothing in flight, long bubble run.
        if (
            not self._window
            and self.outstanding == 0
            and self._bubbles_left > slots * 4
        ):
            jump = self._bubbles_left - slots
            self._bubbles_left = slots
            self.retired += jump
            self._check_finish(now)
            return now + max(1, math.ceil(jump / slots))

        # Retire from the window head.
        budget = slots
        window = self._window
        while budget and window:
            head = window[0]
            if isinstance(head, _MemOp):
                if not head.done:
                    break
                window.popleft()
                self._occupancy -= 1
                budget -= 1
                self.retired += 1
            else:
                take = min(budget, head[0])
                head[0] -= take
                budget -= take
                self._occupancy -= take
                self.retired += take
                if head[0] == 0:
                    window.popleft()
        progress += slots - budget

        # Issue into the window.
        budget = slots
        stalled_on_port = False
        while budget and not self._trace_done:
            space = self.config.window_size - self._occupancy
            if space <= 0:
                break
            if self._bubbles_left:
                take = min(budget, self._bubbles_left, space)
                if window and not isinstance(window[-1], _MemOp):
                    window[-1][0] += take
                else:
                    window.append([take])
                self._occupancy += take
                self._bubbles_left -= take
                budget -= take
                progress += take
                continue
            if self._pending is not None:
                outcome = self._issue_access(self._pending, now)
                if outcome == "stall":
                    stalled_on_port = True
                    break
                self._pending = None
                budget -= 1
                progress += 1
                continue
            record = next(self.trace, None)
            if record is None:
                self._trace_done = True
                break
            self._bubbles_left = record.bubbles
            self._pending = record

        self._check_finish(now)
        if progress:
            return now + 1
        if stalled_on_port:
            return now + 8
        if self.outstanding:
            return IDLE        # a completion callback will notify()
        if self._trace_done and not self._window:
            return IDLE
        return now + 1

    def _issue_access(self, record: TraceRecord, now: int) -> str:
        """Issue one memory instruction through the port.

        Port contract: ``access`` returns 'hit', 'miss' or 'stall'; unless
        it stalls, it invokes ``on_complete(finish_cycle)`` exactly once,
        asynchronously (hits after the LLC latency, misses at fill time).
        Only misses occupy an MSHR.
        """
        if self.outstanding >= self.config.mshrs:
            self.mshr_stalls += 1
            return "stall"
        if record.is_write:
            op = _MemOp(self, is_store=True)
            outcome = self.port.access(
                self.core_id, record.vaddr, True, record.pc, now, op
            )
            if outcome == "stall":
                return "stall"
            if outcome == "miss":
                op.counts_mshr = True
                self.outstanding += 1
            self.retired += 1   # stores retire without blocking the window
            return outcome

        op = _MemOp(self)
        outcome = self.port.access(
            self.core_id, record.vaddr, False, record.pc, now, op
        )
        if outcome == "stall":
            return "stall"
        if outcome == "miss":
            op.counts_mshr = True
            self.outstanding += 1
        self._window.append(op)
        self._occupancy += 1
        return outcome

    def _check_finish(self, now: int) -> None:
        if (
            self.target_instructions is not None
            and self.finish_cycle is None
            and self.measure_start_cycle is not None
            and self.measured_instructions >= self.target_instructions
        ):
            self.finish_cycle = now

