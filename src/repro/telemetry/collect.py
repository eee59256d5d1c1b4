"""System-wide telemetry collection.

:class:`SystemTelemetry` wires one :class:`~repro.telemetry.StatRegistry`
(plus an optional :class:`~repro.telemetry.EventTrace`) into a running
:class:`~repro.sim.system.System`:

* **live instruments** — the per-channel read-latency
  :class:`~repro.telemetry.Histogram` (observed by the controller's
  completion path) and the command :class:`EventTrace` (fed by the DRAM
  channel's issue path) record as events happen;
* **epoch sampling** — a self-rescheduling callback on the system event
  queue fires every ``epoch_cycles`` memory ticks of the measured region
  and appends per-epoch deltas (IPC, row-hit rate, read latency, CROW hit
  rate) and instantaneous occupancies (queues, MSHRs) to
  :class:`~repro.telemetry.EpochSeries`;
* **harvest** — everything else (command counts, queue/drain/refresh
  counters, CROW-table hits/evictions/restores, CROW-ref remaps, LLC and
  prefetcher counters, bank state residency) is read once from the
  simulator's existing raw counters at :meth:`finalize`, so instrumented
  hot paths pay **nothing** beyond the counters they already maintained.

The design keeps telemetry zero-cost when disabled: a ``System`` built
with ``telemetry=False`` never constructs this object, the controller and
channel hooks stay ``None``, and the simulation loop is unchanged (epoch
sampling rides the existing event heap rather than adding a per-step
check).
"""

from __future__ import annotations

from repro.dram.commands import CommandKind
from repro.telemetry.stats import StatRegistry
from repro.telemetry.trace import EventTrace

__all__ = ["SystemTelemetry"]

#: Attribute probing order for the CROW-cache component of a mechanism
#: (plain CrowCache, or the .cache member of the combined cache+ref).
_CACHE_ATTRS = ("hits", "misses", "uncached", "restores", "evictions")


def _cache_component(mechanism):
    """The CROW-cache-like component of ``mechanism``, or ``None``."""
    if all(hasattr(mechanism, attr) for attr in _CACHE_ATTRS):
        return mechanism
    inner = getattr(mechanism, "cache", None)
    if inner is not None and all(hasattr(inner, a) for a in _CACHE_ATTRS):
        return inner
    return None


def _ref_component(mechanism):
    """The CROW-ref-like component of ``mechanism``, or ``None``."""
    if hasattr(mechanism, "remapped_rows") and hasattr(mechanism, "remap"):
        return mechanism
    inner = getattr(mechanism, "ref", None)
    if inner is not None and hasattr(inner, "remapped_rows"):
        return inner
    return None


class SystemTelemetry:
    """Registry + trace + epoch sampler for one :class:`System` run."""

    def __init__(
        self,
        system,
        epoch_cycles: int = 10_000,
        trace_capacity: int = 0,
    ) -> None:
        self.system = system
        self.epoch_cycles = epoch_cycles
        self.registry = StatRegistry()
        self.trace = EventTrace(trace_capacity) if trace_capacity else None

        # Live instruments: one read-latency histogram per channel,
        # observed by the controller completion path.
        latency = self.registry.group("controller")
        self.latency_hists = []
        for index, controller in enumerate(system.controllers):
            hist = latency.group(f"ch{index}").histogram(
                "read_latency",
                "arrival-to-data latency of served reads (memory cycles)",
            )
            controller.latency_hist = hist
            self.latency_hists.append(hist)
        if self.trace is not None:
            for channel in system.channels:
                channel.attach(self.trace.record_command)

        # Epoch time series.
        epochs = self.registry.group("epochs")
        mk = lambda name, desc: epochs.series(name, desc, epoch_cycles)
        self.s_ipc = mk("ipc", "aggregate IPC over each epoch (CPU cycles)")
        self.s_hit = mk("row_hit_rate", "row-buffer hit fraction per epoch")
        self.s_lat = mk("read_latency", "mean read latency per epoch (cycles)")
        self.s_crow = mk("crow_hit_rate", "CROW-table hit fraction per epoch")
        self.s_readq = mk("read_queue", "read-queue occupancy at epoch end")
        self.s_writeq = mk("write_queue", "write-queue occupancy at epoch end")
        self.s_mshr = mk("mshr", "outstanding misses (all cores) at epoch end")

        self._start = 0
        self._epoch_end = 0
        self._baseline: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Measurement lifecycle
    # ------------------------------------------------------------------
    def begin(self, now: int) -> None:
        """Start the measured region: reset live stats, arm the sampler.

        Must run *after* the system has zeroed its raw counters at the
        warm-up boundary, so epoch deltas and harvested totals agree.
        """
        self._start = now
        for hist in self.latency_hists:
            hist.reset()
        if self.trace is not None:
            self.trace.reset()
        for series in (self.s_ipc, self.s_hit, self.s_lat, self.s_crow,
                       self.s_readq, self.s_writeq, self.s_mshr):
            series.reset()
        self._baseline = self._snapshot()
        self._epoch_end = now + self.epoch_cycles
        self.system.events.schedule(self._epoch_end, self._on_epoch)

    def _snapshot(self) -> dict[str, int]:
        system = self.system
        snap = {
            "retired": sum(core.retired for core in system.cores),
            "hits": 0, "misses": 0, "conflicts": 0,
            "reads": 0, "lat_sum": 0,
            "crow_hits": 0, "crow_acts": 0,
        }
        for controller in system.controllers:
            stats = controller.stats
            snap["hits"] += stats["row_hits"]
            snap["misses"] += stats["row_misses"]
            snap["conflicts"] += stats["row_conflicts"]
            snap["reads"] += stats["reads_served"] + stats["forwarded_reads"]
            snap["lat_sum"] += stats["read_latency_sum"]
        for mechanism in system.mechanisms:
            cache = _cache_component(mechanism)
            if cache is not None:
                snap["crow_hits"] += cache.hits
                snap["crow_acts"] += cache.demand_activations
        return snap

    def _on_epoch(self, now: int) -> None:
        """Sample one epoch and re-arm (rides the system event heap)."""
        system = self.system
        prev, cur = self._baseline, self._snapshot()

        def delta(key: str) -> int:
            return cur[key] - prev[key]

        cpu_cycles = self.epoch_cycles * system.config.core.clock_ratio
        self.s_ipc.append(delta("retired") / cpu_cycles if cpu_cycles else None)
        accesses = delta("hits") + delta("misses") + delta("conflicts")
        self.s_hit.append(delta("hits") / accesses if accesses else None)
        reads = delta("reads")
        self.s_lat.append(delta("lat_sum") / reads if reads else None)
        crow_acts = delta("crow_acts")
        self.s_crow.append(
            delta("crow_hits") / crow_acts if crow_acts else None
        )
        self.s_readq.append(
            sum(len(c.read_q) for c in system.controllers)
        )
        self.s_writeq.append(
            sum(len(c.write_q) for c in system.controllers)
        )
        self.s_mshr.append(sum(core.outstanding for core in system.cores))

        self._baseline = cur
        if all(core.done for core in system.cores):
            return  # run is over; let the loop drain without us
        self._epoch_end = now + self.epoch_cycles
        system.events.schedule(self._epoch_end, self._on_epoch)

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def finalize(self, end: int, cycles: int) -> dict:
        """Harvest raw simulator counters into the registry and export."""
        system = self.system
        self._harvest_controllers()
        self._harvest_dram(end, cycles)
        self._harvest_crow()
        self._harvest_mechanism()
        self._harvest_cpu()
        export = self.registry.export()
        if self.trace is not None:
            export["trace"] = self.trace.export()
        export["meta"] = {
            "mechanism": system.config.mechanism,
            "cores": system.config.cores,
            "epoch_cycles": self.epoch_cycles,
            "measure_start": self._start,
            "measure_end": end,
            "cycles": cycles,
        }
        return export

    def _harvest_controllers(self) -> None:
        root = self.registry.group("controller")
        for index, controller in enumerate(self.system.controllers):
            group = root.group(f"ch{index}")
            stats = controller.stats
            counters = {}
            for key in (
                "reads_served", "writes_served", "forwarded_reads",
                "row_hits", "row_misses", "row_conflicts",
                "restore_activations", "refreshes", "write_drains",
            ):
                counters[key] = group.counter(key)
                counters[key].set(stats.get(key, 0))
            group.ratio(
                "row_hit_rate",
                "column accesses served from open rows",
                numerator=counters["row_hits"],
                denominator=lambda c=counters: (
                    c["row_hits"].value + c["row_misses"].value
                    + c["row_conflicts"].value
                ),
            )
            group.ratio(
                "read_latency_avg",
                "mean arrival-to-data read latency (cycles)",
                numerator=stats["read_latency_sum"],
                denominator=stats["reads_served"] + stats["forwarded_reads"],
            )
            trfc = controller.timing.trfc
            refresh_busy = group.counter(
                "refresh_busy_cycles",
                "cycles the channel was blocked by REF (refreshes x tRFC)",
            )
            refresh_busy.set(stats["refreshes"] * trfc)

    def _harvest_dram(self, end: int, cycles: int) -> None:
        root = self.registry.group("dram")
        for index, channel in enumerate(self.system.channels):
            group = root.group(f"ch{index}")
            for kind in CommandKind:
                group.counter(f"cmd_{kind.name.lower()}").set(
                    channel.counts[kind]
                )
            banks = len(channel.banks)
            residency = group.gauge(
                "row_buffer_residency",
                "fraction of bank-cycles with an open row buffer "
                "(energy-model input)",
            )
            if cycles > 0 and banks > 0:
                residency.set(
                    round(
                        channel.open_buffer_cycles(end) / (cycles * banks), 6
                    )
                )
            bank_group = group.group("banks")
            for b, bank in enumerate(channel.banks):
                open_cycles = bank.open_cycles_total
                if bank.is_open:
                    slots = getattr(bank, "subarrays", None)
                    if slots is None:
                        open_cycles += end - bank.act_time
                    else:
                        # SALP banks keep one open epoch per subarray
                        # row buffer; sum the in-progress ones.
                        open_cycles += sum(
                            end - slot.act_time
                            for slot in slots.values()
                            if slot.is_open
                        )
                bank_group.counter(
                    f"b{b}_open_cycles",
                    "cycles this bank held an open row",
                ).set(open_cycles)

    def _harvest_crow(self) -> None:
        caches = [
            c for c in map(_cache_component, self.system.mechanisms)
            if c is not None
        ]
        refs = [
            r for r in map(_ref_component, self.system.mechanisms)
            if r is not None
        ]
        if not caches and not refs:
            return
        group = self.registry.group("crow")
        if caches:
            counters = {}
            for key in _CACHE_ATTRS + ("partial_restores",):
                counters[key] = group.counter(key)
                counters[key].set(
                    sum(getattr(c, key, 0) for c in caches)
                )
            demand = sum(c.demand_activations for c in caches)
            group.ratio(
                "hit_rate",
                "CROW-table hit rate over demand activations (Fig 8)",
                numerator=counters["hits"],
                denominator=demand,
            )
            group.ratio(
                "restore_fraction",
                "evicted-row full-restore activations over all "
                "activations (Section 8.1.1; paper bound: <= 0.006)",
                numerator=counters["restores"],
                denominator=demand + counters["restores"].value,
            )
        if refs:
            group.counter("ref_remapped_rows").set(
                sum(r.remapped_rows for r in refs)
            )
            group.counter("ref_dynamic_remaps").set(
                sum(getattr(r, "dynamic_remaps", 0) for r in refs)
            )
            group.counter("ref_remap_failures").set(
                sum(r.remap_failures for r in refs)
            )
            group.counter("ref_fallback_subarrays").set(
                sum(r.fallback_subarrays for r in refs)
            )

    def _harvest_mechanism(self) -> None:
        """Per-mechanism stat namespaces (``mech.<namespace>``).

        Opt-in via ``Mechanism.telemetry_namespace``: mechanisms that
        predate per-mechanism namespaces leave it ``None`` so the
        committed digest oracle stays byte-identical; plugins that set
        it get their :meth:`~repro.controller.mechanism.Mechanism.stats`
        summed across channels into telemetry snapshots.
        """
        mechanisms = self.system.mechanisms
        namespace = mechanisms[0].telemetry_namespace
        if namespace is None:
            return
        totals: dict[str, float] = {}
        for mechanism in mechanisms:
            for key, value in mechanism.stats().items():
                totals[key] = totals.get(key, 0.0) + value
        group = self.registry.group("mech").group(namespace)
        for key, value in totals.items():
            if value == int(value):
                group.counter(key).set(int(value))
            else:
                group.gauge(key).set(round(value, 6))

    def _harvest_cpu(self) -> None:
        system = self.system
        llc_group = self.registry.group("llc")
        llc = system.llc
        hits = llc_group.counter("hits")
        hits.set(llc.hits)
        misses = llc_group.counter("misses")
        misses.set(llc.misses)
        llc_group.counter("writebacks").set(llc.writebacks)
        llc_group.ratio(
            "miss_rate", "demand misses over demand accesses",
            numerator=misses,
            denominator=lambda: hits.value + misses.value,
        )
        cores_group = self.registry.group("cores")
        for core in system.cores:
            group = cores_group.group(f"c{core.core_id}")
            group.counter(
                "instructions", "instructions retired in the measured region"
            ).set(core.measured_instructions)
            group.counter(
                "mshr_stalls", "issue attempts rejected because all MSHRs "
                "were in flight",
            ).set(getattr(core, "mshr_stalls", 0))
            group.counter(
                "demand_misses"
            ).set(system.port.demand_misses_per_core[core.core_id])
            if system.prefetchers:
                prefetcher = system.prefetchers[core.core_id]
                issued = group.counter("prefetches_issued")
                issued.set(prefetcher.issued)
                useful = group.counter("prefetches_useful")
                useful.set(prefetcher.useful)
                group.ratio(
                    "prefetch_accuracy",
                    "useful prefetches over issued prefetches",
                    numerator=useful, denominator=issued,
                )
