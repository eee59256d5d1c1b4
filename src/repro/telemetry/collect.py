"""System-wide telemetry collection.

:class:`SystemTelemetry` wires read-latency histograms, epoch series and
an optional :class:`~repro.telemetry.EventTrace` into a running
:class:`~repro.sim.system.System`, and assembles the run's export, a
plain nested dict:

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
  simulator's existing raw counters at :meth:`finalize` and exported
  directly as :func:`~repro.telemetry.stats.counter`,
  :func:`~repro.telemetry.stats.gauge` and
  :func:`~repro.telemetry.stats.ratio` dicts, so instrumented hot paths
  pay **nothing** beyond the counters they already maintained.

The design keeps telemetry zero-cost when disabled: a ``System`` built
with ``telemetry=False`` never constructs this object, the controller and
channel hooks stay ``None``, and the simulation loop is unchanged (epoch
sampling rides the existing event heap rather than adding a per-step
check).
"""

from __future__ import annotations

from repro.dram.commands import CommandKind
from repro.telemetry.stats import (
    EpochSeries,
    Histogram,
    counter,
    gauge,
    ratio,
)
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


#: The epoch series, in export order: (name, description).
_SERIES = (
    ("ipc", "aggregate IPC over each epoch (CPU cycles)"),
    ("row_hit_rate", "row-buffer hit fraction per epoch"),
    ("read_latency", "mean read latency per epoch (cycles)"),
    ("crow_hit_rate", "CROW-table hit fraction per epoch"),
    ("read_queue", "read-queue occupancy at epoch end"),
    ("write_queue", "write-queue occupancy at epoch end"),
    ("mshr", "outstanding misses (all cores) at epoch end"),
)


class SystemTelemetry:
    """Histograms + trace + epoch sampler for one :class:`System` run."""

    def __init__(
        self,
        system,
        epoch_cycles: int = 10_000,
        trace_capacity: int = 0,
    ) -> None:
        self.system = system
        self.epoch_cycles = epoch_cycles
        self.trace = EventTrace(trace_capacity) if trace_capacity else None

        # Live instruments: one read-latency histogram per channel,
        # observed by the controller completion path.
        self.latency_hists = []
        for controller in system.controllers:
            hist = Histogram(
                "arrival-to-data latency of served reads (memory cycles)"
            )
            controller.latency_hist = hist
            self.latency_hists.append(hist)
        if self.trace is not None:
            for channel in system.channels:
                channel.attach(self.trace.record_command)

        # Epoch time series.
        self.series = {
            name: EpochSeries(desc, epoch_cycles) for name, desc in _SERIES
        }

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
        for series in self.series.values():
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
        series = self.series
        prev, cur = self._baseline, self._snapshot()

        def delta(key: str) -> int:
            return cur[key] - prev[key]

        cpu_cycles = self.epoch_cycles * system.config.core.clock_ratio
        series["ipc"].append(
            delta("retired") / cpu_cycles if cpu_cycles else None
        )
        accesses = delta("hits") + delta("misses") + delta("conflicts")
        series["row_hit_rate"].append(
            delta("hits") / accesses if accesses else None
        )
        reads = delta("reads")
        series["read_latency"].append(
            delta("lat_sum") / reads if reads else None
        )
        crow_acts = delta("crow_acts")
        series["crow_hit_rate"].append(
            delta("crow_hits") / crow_acts if crow_acts else None
        )
        series["read_queue"].append(
            sum(len(c.read_q) for c in system.controllers)
        )
        series["write_queue"].append(
            sum(len(c.write_q) for c in system.controllers)
        )
        series["mshr"].append(sum(core.outstanding for core in system.cores))

        self._baseline = cur
        if all(core.done for core in system.cores):
            return  # run is over; let the loop drain without us
        self._epoch_end = now + self.epoch_cycles
        system.events.schedule(self._epoch_end, self._on_epoch)

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def finalize(self, end: int, cycles: int) -> dict:
        """Harvest raw simulator counters into the run's export."""
        system = self.system
        export = {
            "controller": self._harvest_controllers(),
            "epochs": {
                name: series.export() for name, series in self.series.items()
            },
            "dram": self._harvest_dram(end, cycles),
        }
        crow = self._harvest_crow()
        if crow:
            export["crow"] = crow
        mech = self._harvest_mechanism()
        if mech:
            export["mech"] = mech
        export.update(self._harvest_cpu())
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

    def _harvest_controllers(self) -> dict:
        out = {}
        for index, controller in enumerate(self.system.controllers):
            stats = controller.stats
            group = {"read_latency": self.latency_hists[index].export()}
            for key in (
                "reads_served", "writes_served", "forwarded_reads",
                "row_hits", "row_misses", "row_conflicts",
                "restore_activations", "refreshes", "write_drains",
            ):
                group[key] = counter(stats.get(key, 0))
            group["row_hit_rate"] = ratio(
                stats["row_hits"],
                stats["row_hits"] + stats["row_misses"]
                + stats["row_conflicts"],
                "column accesses served from open rows",
            )
            group["read_latency_avg"] = ratio(
                stats["read_latency_sum"],
                stats["reads_served"] + stats["forwarded_reads"],
                "mean arrival-to-data read latency (cycles)",
            )
            group["refresh_busy_cycles"] = counter(
                stats["refreshes"] * controller.timing.trfc,
                "cycles the channel was blocked by REF (refreshes x tRFC)",
            )
            out[f"ch{index}"] = group
        return out

    def _harvest_dram(self, end: int, cycles: int) -> dict:
        out = {}
        for index, channel in enumerate(self.system.channels):
            group = {
                f"cmd_{kind.name.lower()}": counter(channel.counts[kind])
                for kind in CommandKind
            }
            banks = len(channel.banks)
            group["row_buffer_residency"] = gauge(
                round(channel.open_buffer_cycles(end) / (cycles * banks), 6)
                if cycles > 0 and banks > 0
                else None,
                "fraction of bank-cycles with an open row buffer "
                "(energy-model input)",
            )
            bank_group = {}
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
                bank_group[f"b{b}_open_cycles"] = counter(
                    open_cycles, "cycles this bank held an open row"
                )
            group["banks"] = bank_group
            out[f"ch{index}"] = group
        return out

    def _harvest_crow(self) -> dict:
        """The ``crow`` group: empty without a CROW-cache or CROW-ref."""
        caches = [
            c for c in map(_cache_component, self.system.mechanisms)
            if c is not None
        ]
        refs = [
            r for r in map(_ref_component, self.system.mechanisms)
            if r is not None
        ]
        group: dict = {}
        if caches:
            totals = {
                key: sum(getattr(c, key, 0) for c in caches)
                for key in _CACHE_ATTRS + ("partial_restores",)
            }
            for key, value in totals.items():
                group[key] = counter(value)
            demand = sum(c.demand_activations for c in caches)
            group["hit_rate"] = ratio(
                totals["hits"], demand,
                "CROW-table hit rate over demand activations (Fig 8)",
            )
            group["restore_fraction"] = ratio(
                totals["restores"], demand + totals["restores"],
                "evicted-row full-restore activations over all "
                "activations (Section 8.1.1; paper bound: <= 0.006)",
            )
        if refs:
            for key in (
                "remapped_rows", "dynamic_remaps", "remap_failures",
                "fallback_subarrays",
            ):
                group[f"ref_{key}"] = counter(
                    sum(getattr(r, key, 0) for r in refs)
                )
        return group

    def _harvest_mechanism(self) -> dict:
        """The ``mech`` group: per-mechanism stat namespaces.

        Opt-in via ``Mechanism.telemetry_namespace``: mechanisms that
        predate per-mechanism namespaces leave it ``None`` so the
        committed digest oracle stays byte-identical; plugins that set
        it get their :meth:`~repro.controller.mechanism.Mechanism.stats`
        summed across channels into telemetry snapshots.
        """
        mechanisms = self.system.mechanisms
        namespace = mechanisms[0].telemetry_namespace
        if namespace is None:
            return {}
        totals: dict[str, float] = {}
        for mechanism in mechanisms:
            for key, value in mechanism.stats().items():
                totals[key] = totals.get(key, 0.0) + value
        return {
            namespace: {
                key: counter(int(value)) if value == int(value)
                else gauge(round(value, 6))
                for key, value in totals.items()
            }
        }

    def _harvest_cpu(self) -> dict:
        """The ``llc`` and ``cores`` groups."""
        system = self.system
        llc = system.llc
        cores = {}
        for core in system.cores:
            group = {
                "instructions": counter(
                    core.measured_instructions,
                    "instructions retired in the measured region",
                ),
                "mshr_stalls": counter(
                    getattr(core, "mshr_stalls", 0),
                    "issue attempts rejected because all MSHRs were in "
                    "flight",
                ),
                "demand_misses": counter(
                    system.port.demand_misses_per_core[core.core_id]
                ),
            }
            if system.prefetchers:
                prefetcher = system.prefetchers[core.core_id]
                group["prefetches_issued"] = counter(prefetcher.issued)
                group["prefetches_useful"] = counter(prefetcher.useful)
                group["prefetch_accuracy"] = ratio(
                    prefetcher.useful, prefetcher.issued,
                    "useful prefetches over issued prefetches",
                )
            cores[f"c{core.core_id}"] = group
        return {
            "llc": {
                "hits": counter(llc.hits),
                "misses": counter(llc.misses),
                "writebacks": counter(llc.writebacks),
                "miss_rate": ratio(
                    llc.misses, llc.hits + llc.misses,
                    "demand misses over demand accesses",
                ),
            },
            "cores": cores,
        }
