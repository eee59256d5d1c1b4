"""Full-system wiring: cores + LLC + channel controllers + mechanism.

:class:`System` builds the component graph described by a
:class:`~repro.sim.config.SystemConfig`, runs the event-paced simulation
loop (warm-up followed by a measured region, as in the paper's
methodology), and assembles a :class:`~repro.sim.metrics.SimResult`.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from repro.controller import ChannelController, FrFcfsCap, MemRequest, RequestType
from repro.cpu import Core, Llc, RptPrefetcher, VirtualMemory
from repro.cpu.core import TraceRecord
from repro.dram import AddressMapper, CellArray, DramChannel
from repro.energy import (
    ChannelActivity,
    EnergyModel,
    IddCurrents,
    breakdown_from_coefficients,
)
from repro.errors import ConfigError, ReproError, SnapshotError
from repro.mech import get_plugin
from repro.sim import factory
from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.prewarm import warm_llc
from repro.trace.stream import TraceStream

__all__ = ["System"]

IDLE = 1 << 62


def _fmt_wake(time: int) -> str:
    """Render a component wake time for diagnostics (IDLE -> 'idle')."""
    return "idle" if time >= IDLE else str(time)


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Defer the generational GC for the enclosed simulation work.

    The GC costs ~25% of a run: the hot loops allocate short-lived
    tuples (trace records, commands, events) fast enough to trigger a
    gen-0 collection every few hundred steps, and each collection also
    scans the long-lived simulator object graph. Nothing the simulator
    allocates per-step forms reference cycles, so collection is safely
    deferred until the run completes (or raises).
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _prefetch_disabled(core_id: int, pc: int, vaddr: int, now: int) -> None:
    """No-op bound over MemoryPort._maybe_prefetch when prefetch is off."""


class _EventQueue:
    """Timestamped callback heap (completion events, etc.).

    Callbacks receive their own scheduled time — every event in this
    simulator is a completion firing *at* its finish cycle, so passing
    the timestamp back removes the need for per-event closures (which a
    snapshot could not pickle; see :mod:`repro.snapshot`). The heap
    therefore only ever holds three callable shapes: a
    :class:`repro.cpu.core._MemOp`, a
    :class:`repro.controller.request.MemRequest`, or the telemetry
    epoch sampler bound method. :meth:`System._run_until` pops due
    events off ``_heap`` inline.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[[int], None]]] = []
        self._seq = 0

    def schedule(self, time: int, fn: Callable[[int], None]) -> None:
        """Enqueue ``fn`` to run at ``time`` (called as ``fn(time)``)."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn))

    def next_time(self) -> int:
        """Timestamp of the earliest pending event (IDLE if none)."""
        return self._heap[0][0] if self._heap else IDLE


class MemoryPort:
    """The cores' window into the memory hierarchy.

    Translates, consults the shared LLC, merges outstanding fills, drives
    the prefetcher, and hands misses/writebacks to the right channel
    controller. See :meth:`repro.cpu.core.Core._issue_access` for the
    completion-callback contract.
    """

    __slots__ = (
        "system",
        "_outstanding",
        "demand_misses_per_core",
        "demand_accesses_per_core",
        "dropped_writebacks",
        "_line_mask",
        "_maybe_prefetch",
    )

    def __init__(self, system: "System") -> None:
        self.system = system
        # line -> [issued_as_prefetch, waiter callbacks...]
        self._outstanding: dict[int, list] = {}
        self.demand_misses_per_core = [0] * system.config.cores
        self.demand_accesses_per_core = [0] * system.config.cores
        self.dropped_writebacks = 0
        self._line_mask = ~(system.llc.config.line_bytes - 1)
        # The prefetcher set is fixed at construction: bind the observe
        # hook to a no-op when disabled so the hit/miss hot path pays one
        # call, not a per-access emptiness test.
        self._maybe_prefetch = (
            self._observe_access
            if system.prefetchers
            else _prefetch_disabled
        )

    # ------------------------------------------------------------------
    def access(
        self,
        core_id: int,
        vaddr: int,
        is_write: bool,
        pc: int,
        now: int,
        on_complete: Callable[[int], None],
    ) -> str:
        """Serve one core access; returns 'hit', 'miss' or 'stall'."""
        system = self.system
        line = system.vm.translate(core_id, vaddr) & self._line_mask
        if system.llc.contains(line):
            hit, _, was_prefetched = system.llc.access(line, is_write)
            assert hit
            if was_prefetched and system.prefetchers:
                system.prefetchers[core_id].useful += 1
            finish = now + system.llc.config.hit_latency
            system.events.schedule(finish, on_complete)
            self.demand_accesses_per_core[core_id] += 1
            self._maybe_prefetch(core_id, pc, vaddr, now)
            return "hit"

        # Miss: secure queue space for the fill and any dirty writeback.
        pending = self._outstanding.get(line)
        if pending is not None:
            # Merge with the in-flight fill for this line (MSHR merge).
            system.llc.access(line, is_write)  # allocates/updates LRU
            if pending[0] and system.prefetchers:
                # The demand caught an in-flight prefetch: count it useful
                # (latency was partially hidden) exactly once.
                system.prefetchers[core_id].useful += 1
                pending[0] = False
            pending.append(on_complete)
            self.demand_accesses_per_core[core_id] += 1
            self.demand_misses_per_core[core_id] += 1
            self._maybe_prefetch(core_id, pc, vaddr, now)
            return "miss"
        location = system.mapper.decode(line)
        controller = system.controllers[location.channel]
        if not controller.can_accept(RequestType.READ):
            return "stall"
        victim = system.llc.peek_victim(line)
        if victim is not None:
            wb_controller = system.controller_for(victim)
            if not wb_controller.can_accept(RequestType.WRITE):
                return "stall"
        _, writeback, _ = system.llc.access(line, is_write)
        if writeback is not None:
            self._post_writeback(writeback, now)
        self._outstanding[line] = [False, on_complete]
        request = MemRequest(
            RequestType.READ,
            line,
            location,
            core_id=core_id,
            callback=self._fill_done,
        )
        accepted = controller.enqueue(request, now)
        assert accepted
        controller.next_wake = min(controller.next_wake, now)
        self.demand_accesses_per_core[core_id] += 1
        self.demand_misses_per_core[core_id] += 1
        self._maybe_prefetch(core_id, pc, vaddr, now)
        return "miss"

    # ------------------------------------------------------------------
    def _fill_done(self, request: MemRequest, finish: int) -> None:
        """Completion callback for every fill this port issued.

        A bound method (not a per-miss closure) so snapshots can pickle
        it. The fill's nature is carried by the request itself:
        prefetch fills allocate at completion time and may evict a dirty
        victim; demand fills allocated at issue time. The outstanding
        entry's waiters are demand completions merged onto the fill.
        """
        line = request.address
        entry = self._outstanding.pop(line)
        if request.is_prefetch:
            writeback = self.system.llc.fill_prefetch(line)
            if writeback is not None:
                self._post_writeback(writeback, finish)
        for waiter in entry[1:]:
            waiter(finish)

    def _post_writeback(self, address: int, now: int) -> None:
        """Post a dirty eviction to its channel's write queue.

        Demand-path writebacks are guaranteed space by the
        :meth:`Llc.peek_victim <repro.cpu.cache.Llc.peek_victim>` stall
        check; fill-time (prefetch) writebacks may rarely find the
        queue full and are counted — a bounded timing inaccuracy, since
        the LLC model does not carry data.
        """
        system = self.system
        location = system.mapper.decode(address)
        controller = system.controllers[location.channel]
        request = MemRequest(RequestType.WRITE, address, location)
        if controller.enqueue(request, now):
            controller.next_wake = min(controller.next_wake, now)
        else:
            self.dropped_writebacks += 1

    def _observe_access(
        self, core_id: int, pc: int, vaddr: int, now: int
    ) -> None:
        system = self.system
        prefetcher = system.prefetchers[core_id]
        for target_vaddr in prefetcher.observe(pc, vaddr):
            line = system.vm.translate(core_id, target_vaddr) & self._line_mask
            if system.llc.contains(line) or line in self._outstanding:
                continue
            location = system.mapper.decode(line)
            controller = system.controllers[location.channel]
            if not controller.can_accept(RequestType.READ):
                continue
            self._outstanding[line] = [True]
            request = MemRequest(
                RequestType.READ,
                line,
                location,
                core_id=core_id,
                callback=self._fill_done,
                is_prefetch=True,
            )
            controller.enqueue(request, now)
            controller.next_wake = min(controller.next_wake, now)

    def reset_stats(self) -> None:
        """Zero statistics at the warm-up boundary."""
        self.demand_misses_per_core = [0] * self.system.config.cores
        self.demand_accesses_per_core = [0] * self.system.config.cores


class System:
    """One simulated machine, ready to run a set of traces.

    ``warm_image`` names a file that holds this system's functional
    pre-warm state, or will (see :meth:`prewarm`).
    """

    def __init__(
        self,
        config: SystemConfig,
        traces: list[Iterator[TraceRecord]],
        warm_image: "str | Path | None" = None,
    ) -> None:
        if len(traces) != config.cores:
            raise ConfigError(
                f"expected {config.cores} traces, got {len(traces)}"
            )
        self.config = config
        self.geometry = config.resolved_geometry()
        self.mapper = AddressMapper(self.geometry)
        base_timing = factory.base_timing(config)
        self.crow_timings = factory.build_crow_timings(
            config, self.geometry, base_timing
        )
        self.retention = factory.build_retention(config, self.geometry)
        self.mechanisms = [
            factory.build_mechanism(
                config, self.geometry, base_timing, self.crow_timings,
                self.retention, ch,
            )
            for ch in range(self.geometry.channels)
        ]
        self.timing = factory.final_timing(base_timing, self.mechanisms)
        plugin = get_plugin(config.mechanism)
        refresh_enabled = (
            config.refresh_enabled and plugin.uses_controller_refresh(config)
        )
        salp_subarrays = plugin.salp_subarrays(config, self.geometry)
        self.cell_arrays = []
        self.channels = []
        for ch in range(self.geometry.channels):
            cell_array = None
            if config.functional_cells:
                cell_array = CellArray(
                    self.geometry,
                    clock_mhz=self.timing.clock_mhz,
                    channel=ch,
                    retention=self.retention,
                )
            self.cell_arrays.append(cell_array)
            self.channels.append(
                DramChannel(
                    self.geometry,
                    self.timing,
                    salp_subarrays=salp_subarrays,
                    cell_array=cell_array,
                )
            )
        self.events = _EventQueue()
        controller_config = plugin.controller_config(config, config.controller)
        self.controllers = [
            ChannelController(
                channel,
                mechanism=mechanism,
                scheduler=FrFcfsCap(controller_config.fr_fcfs_cap),
                config=controller_config,
                schedule_event=self.events.schedule,
                refresh_enabled=refresh_enabled,
            )
            for channel, mechanism in zip(self.channels, self.mechanisms)
        ]
        for controller in self.controllers:
            controller.next_wake = 0
        self.llc = Llc(config.llc_config())
        self.vm = VirtualMemory(self.geometry.capacity_bytes, seed=config.seed)
        self.prefetchers = (
            [
                RptPrefetcher() for _ in range(config.cores)
            ]
            if config.prefetcher
            else []
        )
        self.port = MemoryPort(self)
        self.cores = [
            Core(i, trace, self.port, config.core)
            for i, trace in enumerate(traces)
        ]
        self.energy_model = EnergyModel(
            self.timing, IddCurrents.lpddr4(config.density_gbit)
        )
        self.telemetry = None
        if config.telemetry:
            from repro.telemetry import SystemTelemetry

            self.telemetry = SystemTelemetry(
                self,
                epoch_cycles=config.telemetry_epoch_cycles,
                trace_capacity=config.telemetry_trace_capacity,
            )
        # Checkers attach after the telemetry trace, so a strict-mode
        # violation's offending command is already in the trace.
        self.checkers = (
            [
                factory.build_checker(
                    config, channel, mechanism, self.retention, ch,
                    config.check_mode,
                )
                for ch, (channel, mechanism) in enumerate(
                    zip(self.channels, self.mechanisms)
                )
            ]
            if config.check
            else []
        )
        self._measure_start: int | None = None
        self.warm_image = None if warm_image is None else Path(warm_image)
        self.now = 0
        # Loop parameters, stored by run() so a checkpoint carries them.
        self.instructions: int | None = None
        self.warmup_instructions = 0
        self.max_cycles: int | None = None
        self.checkpoint_path: Path | None = None
        self.checkpoint_every = 0

    def __getstate__(self) -> dict:
        # A checkpoint does not carry its own file name: load() points
        # checkpoint_path at the file it reads, so two checkpoints of
        # one run written to different files pickle the same state.
        state = self.__dict__.copy()
        state["checkpoint_path"] = None
        return state

    def check_report(self, finalize: bool = True):
        """Merged conformance report across channels (requires check=True).

        With ``finalize`` the end-of-run whole-window checks (refresh
        coverage) run first, against the current cycle.
        """
        if not self.checkers:
            raise ConfigError("check_report() requires SystemConfig.check")
        from repro.check import CheckReport

        merged = CheckReport()
        for checker in self.checkers:
            if finalize:
                checker.finalize(self.now)
            merged.merge(checker.report)
        return merged

    def controller_for(self, address: int) -> ChannelController:
        """The channel controller owning ``address``."""
        return self.controllers[self.mapper.decode(address).channel]

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def _run_until(
        self,
        done: Callable[[], bool],
        max_cycles: int | None,
        phase: str,
        between: Callable[[], None] | None = None,
    ) -> None:
        """Step the timed simulation until ``done()`` holds.

        Each step advances ``now`` to the min-wake horizon (the earliest
        pending event or component wake), fires every event due by then,
        and ticks each due core, then each due controller. That order is
        fixed: ticks have side effects (row-timeout precharges,
        drain-mode flips, refresh scheduling), so none may be skipped or
        reordered. After each step the ``max_cycles`` limit is checked,
        then ``between()`` runs (checkpoint saving), so checkpoints are
        only ever taken between steps.

        The next horizon is computed while ticking: each component's wake
        is read once its tick (if due) has returned, and the heap head
        last. That fused scan is exact because a tick never lowers the
        wake of a component scanned before it: core ticks lower a
        controller's wake only through ``enqueue``, and controllers come
        after cores; every other wake-up goes through the event heap.
        ``done()`` reads only core state that :meth:`Core.tick` changes,
        so it is re-checked only after a step in which a core ticked.
        ``between()`` may do anything, so the horizon is re-scanned in
        full after it.
        """
        cores = self.cores
        controllers = self.controllers
        heap = self.events._heap
        pop = heapq.heappop
        limit = IDLE if max_cycles is None else max_cycles
        if done():
            return
        t = self._horizon()
        while True:
            if t >= IDLE:
                raise ReproError(self._deadlock_message())
            if t > self.now:
                self.now = t
            now = self.now
            while heap and heap[0][0] <= now:
                when, _, fn = pop(heap)
                fn(when)
            t = IDLE
            core_ticked = False
            for core in cores:
                wake = core.next_wake
                if wake <= now:
                    wake = core.next_wake = core.tick(now)
                    core_ticked = True
                if wake < t:
                    t = wake
            for controller in controllers:
                wake = controller.next_wake
                if wake <= now:
                    wake = controller.next_wake = controller.tick(now)
                if wake < t:
                    t = wake
            if heap and heap[0][0] < t:
                t = heap[0][0]
            if now > limit:
                raise ReproError(f"{phase} exceeded max_cycles")
            if between is not None:
                between()
                t = self._horizon()
            if core_ticked and done():
                return

    def _horizon(self) -> int:
        """Earliest pending event or component wake (IDLE if none)."""
        return min(
            self.events.next_time(),
            *(core.next_wake for core in self.cores),
            *(controller.next_wake for controller in self.controllers),
        )

    def _deadlock_message(self) -> str:
        """Diagnostic for a stuck simulation: every component's wake time."""
        waits = [f"event-queue={_fmt_wake(self.events.next_time())}"]
        waits.extend(
            f"core{core.core_id}={_fmt_wake(core.next_wake)}"
            for core in self.cores
        )
        waits.extend(
            f"controller{i}={_fmt_wake(ctrl.next_wake)}"
            for i, ctrl in enumerate(self.controllers)
        )
        return (
            f"simulation deadlock at cycle {self.now}: no component has "
            f"pending work ({', '.join(waits)})"
        )

    def prewarm(self, accesses_per_core: int) -> None:
        """Functionally warm the LLC (and page table) without timing.

        Pulls the first ``accesses_per_core`` records of every core's
        trace through translation and the LLC, round-robin. This stands in
        for the paper's 100M-instruction cache warm-up, which a Python
        cycle simulator cannot afford to execute in timed mode. The
        records consumed here simply become part of the (untimed) past.
        The vectorized kernel is :func:`repro.sim.prewarm.warm_llc`.

        A system built with a ``warm_image`` path adopts the image when
        it holds this warm state (same :func:`~repro.snapshot.warm.
        warmup_digest`, workloads, seeds and access count): it takes the
        image's ``Llc``, ``VirtualMemory`` and trace streams as its own.
        Otherwise it computes the state and pickles those three objects
        into the image, atomically, for the next system. An image built
        for other inputs raises :class:`ConfigError`; a missing or torn
        one, or one written by other code, is recomputed and rewritten.
        """
        if accesses_per_core < 0:
            raise ConfigError("prewarm accesses must be >= 0")
        traces = [core.trace for core in self.cores]
        if self.warm_image is None:
            warm_llc(self.llc, self.vm, traces, accesses_per_core)
            return
        from repro.snapshot import read_snapshot, warmup_digest, write_snapshot

        for trace in traces:
            if not isinstance(trace, TraceStream) or trace.consumed:
                raise SnapshotError(
                    "a warm image seeds only the first prewarm, over "
                    "unread repro.trace.TraceStream traces"
                )
        header = {
            "kind": "warm",
            "warm_digest": warmup_digest(self.config),
            "workloads": [trace.workload_name for trace in traces],
            "seeds": [trace.seed for trace in traces],
            "prewarm_accesses": accesses_per_core,
        }
        try:
            saved, state = read_snapshot(self.warm_image)
        except SnapshotError:  # missing, torn, or written by other code
            pass
        else:
            built_for = {key: saved.get(key) for key in header}
            if built_for != header:
                raise ConfigError(
                    f"warm image {self.warm_image} was built for other "
                    f"inputs: image {built_for!r}, this system {header!r}"
                )
            self.llc, self.vm = state["llc"], state["vm"]
            for core, trace in zip(self.cores, state["traces"], strict=True):
                core.trace = trace
            return
        warm_llc(self.llc, self.vm, traces, accesses_per_core)
        write_snapshot(
            self.warm_image, header,
            {"llc": self.llc, "vm": self.vm, "traces": traces},
        )

    def run(
        self,
        instructions: int = 100_000,
        warmup_instructions: int = 20_000,
        max_cycles: int | None = None,
        prewarm_accesses: int = 200_000,
        checkpoint_path: "str | Path | None" = None,
        checkpoint_every: int = 50_000,
    ) -> SimResult:
        """Warm up, measure, and return the result.

        Mirrors the paper's methodology (Section 7): caches are warmed
        (functionally via ``prewarm_accesses``, then in timed mode for
        ``warmup_instructions`` per core); then statistics reset and each
        core runs for ``instructions`` more; the simulation stops when
        every core has retired its measured quota.

        With a ``checkpoint_path`` the loop pickles this system into
        that file every ``checkpoint_every`` cycles (:meth:`resume`
        continues it), and removes the file when the run completes.
        Without one the timed loop pays one ``is not None`` test per
        step. The loop parameters are stored on the system, so a
        checkpoint carries them.
        """
        if instructions < 1 or warmup_instructions < 0:
            raise ConfigError("invalid instruction counts")
        if prewarm_accesses < 0:
            raise ConfigError("prewarm accesses must be >= 0")
        if checkpoint_path is not None and checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        self.instructions = instructions
        self.warmup_instructions = warmup_instructions
        self.max_cycles = max_cycles
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.checkpoint_every = checkpoint_every
        with _gc_paused():
            if prewarm_accesses:
                self.prewarm(prewarm_accesses)
            return self.run_to_completion()

    def run_to_completion(self) -> SimResult:
        """Drive the timed loops from the current state to the result.

        Shared by fresh runs and loaded checkpoints: the loop parameters
        are the ones :meth:`run` stored, and the phase is derived from
        the state itself (``_measure_start is None`` means the warm-up
        loop still has work), so a loaded checkpoint continues with the
        exact step sequence of the original run. Checkpoints are saved
        by the loop's between-steps hook, whose cadence counts from the
        current cycle; without a checkpoint path the hook is ``None``.
        """
        between = self._checkpoint_hook()
        cores = self.cores
        warmup_instructions = self.warmup_instructions
        with _gc_paused():
            if self._measure_start is None:
                self._run_until(
                    lambda: all(
                        core.retired >= warmup_instructions for core in cores
                    ),
                    self.max_cycles,
                    "warm-up",
                    between,
                )
                self._begin_measurement(self.instructions)
            self._run_until(
                lambda: all(core.done for core in cores),
                self.max_cycles,
                "measurement",
                between,
            )
            result = self._collect(self.instructions)
        if self.checkpoint_path is not None:
            # The run completed: a leftover checkpoint would make a later
            # identical run resume from mid-flight state instead of
            # recomputing (correct but surprising) — remove it.
            self.checkpoint_path.unlink(missing_ok=True)
        return result

    def _checkpoint_hook(self) -> Callable[[], None] | None:
        """The between-steps hook saving checkpoints (``None`` without a
        checkpoint path).

        The cadence counts from the current cycle and carries across the
        warm-up/measurement boundary.
        """
        if self.checkpoint_path is None:
            return None
        next_checkpoint = self.now + self.checkpoint_every

        def between() -> None:
            nonlocal next_checkpoint
            if self.now >= next_checkpoint:
                self.save_snapshot(self.checkpoint_path)
                next_checkpoint = self.now + self.checkpoint_every

        return between

    def _begin_measurement(self, instructions: int) -> None:
        self._measure_start = self.now
        for core in self.cores:
            core.begin_measurement(self.now, instructions)
        for controller in self.controllers:
            for key in controller.stats:
                controller.stats[key] = 0
        for channel in self.channels:
            for kind in list(channel.counts):
                channel.counts[kind] = 0
            for bank in channel.banks:
                bank.open_cycles_total = 0
                if hasattr(bank, "subarrays"):
                    for slot in bank.subarrays.values():
                        slot.open_cycles_total = 0
        self.llc.reset_stats()
        self.port.reset_stats()
        for mechanism in self.mechanisms:
            mechanism.reset_stats()
        for prefetcher in self.prefetchers:
            prefetcher.reset_stats()
        if self.telemetry is not None:
            # After the raw counters are zeroed, so epoch deltas and the
            # end-of-run harvest both cover exactly the measured region.
            self.telemetry.begin(self.now)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _collect(self, instructions: int) -> SimResult:
        assert self._measure_start is not None
        start = self._measure_start
        end = max(core.finish_cycle or self.now for core in self.cores)
        cycles = end - start
        energy = None
        coefficients = self.energy_model.coefficients()
        for channel in self.channels:
            activity = ChannelActivity.from_channel(channel, cycles, self.now)
            breakdown = breakdown_from_coefficients(coefficients, activity)
            energy = breakdown if energy is None else energy + breakdown
        mechanism_stats: dict[str, float] = {}
        for mechanism in self.mechanisms:
            for key, value in mechanism.stats().items():
                mechanism_stats[key] = mechanism_stats.get(key, 0.0) + value
        # Only CROW-cache mechanisms define hit_rate(): other tables
        # (TL-DRAM, ChargeCache) report their rates in mechanism_stats.
        hit_rates = [
            mech.hit_rate() for mech in self.mechanisms if hasattr(mech, "hit_rate")
        ]
        controller_stats: dict[str, int] = {}
        for controller in self.controllers:
            for key, value in controller.stats.items():
                controller_stats[key] = controller_stats.get(key, 0) + value
        mpki = []
        for core in self.cores:
            instr = max(1, core.measured_instructions)
            mpki.append(
                1000.0 * self.port.demand_misses_per_core[core.core_id] / instr
            )
        return SimResult(
            mechanism=self.config.mechanism,
            cores=self.config.cores,
            cycles=cycles,
            clock_ratio=self.config.core.clock_ratio,
            core_ipcs=[core.ipc(self.now) for core in self.cores],
            core_mpki=mpki,
            llc_miss_rate=self.llc.miss_rate(),
            energy=energy,
            crow_hit_rate=(sum(hit_rates) / len(hit_rates)) if hit_rates else None,
            mechanism_stats=mechanism_stats,
            controller_stats=controller_stats,
            refresh_window_ms=self.timing.refresh_window_ms,
            telemetry=(
                self.telemetry.finalize(end, cycles)
                if self.telemetry is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _snapshot_guard(self) -> None:
        """Reject systems whose traces a snapshot header cannot name."""
        for core in self.cores:
            if not isinstance(core.trace, TraceStream):
                raise SnapshotError(
                    f"core {core.core_id} trace has no provenance (got "
                    f"{type(core.trace).__name__}); snapshots need "
                    "repro.trace.TraceStream traces (run_workload/run_mix "
                    "build these automatically)"
                )

    def save_snapshot(self, path: "str | Path") -> None:
        """Pickle this system, whole, into one container at ``path``.

        Every field travels with it, the loop parameters :meth:`run`
        stored included, so :meth:`resume` continues a checkpoint to a
        result whose telemetry digest is byte-identical to the
        uninterrupted run's. A system holding an unpicklable object
        raises :class:`SnapshotError` and writes nothing.
        """
        self._snapshot_guard()
        from repro.sim.campaign import config_digest
        from repro.snapshot.container import write_snapshot

        header = {
            "kind": "full",
            "config_digest": config_digest(self.config),
            "mechanism": self.config.mechanism,
            "cores": self.config.cores,
            "cycle": self.now,
            "phase": "warmup" if self._measure_start is None else "measure",
            "workloads": [core.trace.workload_name for core in self.cores],
            "seeds": [core.trace.seed for core in self.cores],
            "consumed": [core.trace.consumed for core in self.cores],
        }
        write_snapshot(path, header, self)

    @classmethod
    def load(cls, path: "str | Path") -> "System":
        """Unpickle the system a checkpoint holds, to continue its run.

        The loaded system checkpoints into ``path``, the file it was
        loaded from, at the saved cadence, and removes it when its run
        completes. A missing, torn or other-code file, or a container of
        another kind, raises :class:`SnapshotError`.
        """
        from repro.snapshot.container import read_snapshot

        header, system = read_snapshot(path)
        if header.get("kind") != "full" or not isinstance(system, cls):
            raise SnapshotError(
                f"{path}: expected a full snapshot, got kind "
                f"{header.get('kind')!r}"
            )
        if system.instructions is None:
            raise SnapshotError(
                f"{path}: the snapshot was saved outside a run and has "
                "nothing to continue"
            )
        system.checkpoint_path = Path(path)
        return system

    @classmethod
    def resume(cls, path: "str | Path") -> SimResult:
        """Continue the checkpointed run in ``path`` to completion."""
        return cls.load(path).run_to_completion()
