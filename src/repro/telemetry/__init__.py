"""Observability subsystem: nested-dict stats, epoch series, tracing.

Every headline number in the paper's evaluation is an *internal*
statistic — CROW-table hit rate (Fig 8), the evicted-row full-restore
fraction (Section 8.1.1), row-buffer state residency feeding the energy
model (Fig 10). This package makes those first-class:

* :mod:`repro.telemetry.stats` — the two live instruments
  (:class:`Histogram` with log buckets and p50/p95/p99,
  :class:`EpochSeries` sampled per epoch of memory ticks) and the
  ``counter``/``gauge``/``ratio`` builders; the export is a
  gem5/Ramulator-style tree of plain, deterministic dicts;
* :class:`EventTrace` — a bounded ring buffer of command-level events
  (tick, command, bank, row, mechanism decision) with JSONL export;
* :class:`SystemTelemetry` — the collector that instruments a
  :class:`~repro.sim.system.System`: live latency histograms and command
  traces, per-epoch sampling on the event heap, and an end-of-run
  harvest of every raw counter in the stack into one nested dict.

Telemetry is **opt-in and zero-cost when disabled**: enable it with
``SystemConfig(telemetry=True)`` and read ``SimResult.telemetry``, or use
``python -m repro stats`` from the command line. Exports contain no
wall-clock values, so identical (config, seed) runs produce
byte-identical payloads — :func:`export_digest` fingerprints them.
"""

from repro.telemetry.collect import SystemTelemetry
from repro.telemetry.stats import EpochSeries, Histogram, export_digest
from repro.telemetry.summary import headline_summary
from repro.telemetry.trace import EventTrace

__all__ = [
    "headline_summary",
    "Histogram",
    "EpochSeries",
    "EventTrace",
    "SystemTelemetry",
    "export_digest",
]
