"""Simulation statistics as plain nested dicts (gem5/Ramulator-style).

Two instruments record while a run is live:

* :class:`Histogram` — log2-bucketed distribution with exact count, sum,
  min and max, and interpolated percentiles (p50/p95/p99);
* :class:`EpochSeries` — a value sampled once per epoch (epoch length in
  memory ticks), giving every statistic a time axis.

Everything else is read from the simulator's raw counters once, at
harvest, and exported directly by :func:`counter` (monotonic event
count), :func:`gauge` (instantaneous value: occupancy, residency
fraction) and :func:`ratio` (numerator/denominator pair whose value is
``None``, never a division error, when the denominator is zero).

Exports are plain nested dicts of JSON types, deterministic by
construction: no wall-clock timestamps, no object identities, keys
emitted in insertion order and serialized with ``sort_keys``. Two runs
with identical configuration and seed therefore produce byte-identical
exports — which is what :func:`export_digest` hashes.
"""

from __future__ import annotations

import hashlib
import json
import math

from repro.errors import ConfigError

__all__ = [
    "counter",
    "gauge",
    "ratio",
    "Histogram",
    "EpochSeries",
    "export_digest",
]


def counter(value: int, desc: str = "") -> dict:
    """Export of a monotonic event count."""
    return {"kind": "counter", "desc": desc, "value": value}


def gauge(value: float | None, desc: str = "") -> dict:
    """Export of an instantaneous value (``None`` when undefined)."""
    return {"kind": "gauge", "desc": desc, "value": value}


def ratio(numerator: float, denominator: float, desc: str = "") -> dict:
    """Export of ``numerator / denominator``.

    The value is **defined for the empty case**: ``None`` when the
    denominator is zero, never a ``ZeroDivisionError`` — consumers print
    ``-`` or skip it.
    """
    num, den = float(numerator), float(denominator)
    return {
        "kind": "ratio",
        "desc": desc,
        "numerator": num,
        "denominator": den,
        "value": None if den == 0 else num / den,
    }


class Histogram:
    """Log2-bucketed distribution (latencies span orders of magnitude).

    Bucket ``i`` holds values ``v`` with ``v.bit_length() == i`` — i.e.
    ``[2**(i-1), 2**i)`` for ``i >= 1``, with bucket 0 holding zeros.
    Alongside the buckets the exact count, sum, min and max are kept, so
    the mean is exact and only percentiles are bucket-interpolated.
    """

    def __init__(self, desc: str = "", max_buckets: int = 64) -> None:
        self.desc = desc
        self.max_buckets = max_buckets
        self.reset()

    def reset(self) -> None:
        """Drop every sample (warm-up boundary)."""
        self.buckets = [0] * self.max_buckets
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, value: int) -> None:
        """Record one sample (negative values clamp to zero)."""
        v = int(value)
        if v < 0:
            v = 0
        index = min(v.bit_length(), self.max_buckets - 1)
        self.buckets[index] += 1
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float | None:
        """Exact mean of all observed samples (None when empty)."""
        return self.total / self.count if self.count else None

    def percentile(self, p: float) -> float | None:
        """Bucket-interpolated percentile in [0, 100] (None when empty)."""
        if not 0 <= p <= 100:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        if not self.count:
            return None
        target = p / 100.0 * self.count
        cumulative = 0
        for index, bucket in enumerate(self.buckets):
            if not bucket:
                continue
            if cumulative + bucket >= target:
                lo = 0 if index == 0 else 1 << (index - 1)
                hi = 1 if index == 0 else (1 << index) - 1
                lo = max(lo, self.min if self.min is not None else lo)
                hi = min(hi, self.max if self.max is not None else hi)
                if hi <= lo:
                    return float(lo)
                # Linear interpolation inside the bucket.
                within = (target - cumulative) / bucket
                return lo + within * (hi - lo)
            cumulative += bucket
        return float(self.max if self.max is not None else 0)

    def export(self) -> dict:
        """Plain-JSON projection of the distribution."""
        populated = {
            str(i): n for i, n in enumerate(self.buckets) if n
        }
        out = {
            "kind": "histogram",
            "desc": self.desc,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": populated,
        }
        for p in (50, 95, 99):
            value = self.percentile(p)
            out[f"p{p}"] = None if value is None else round(value, 3)
        return out


class EpochSeries:
    """A statistic sampled once per epoch (epoch length in memory ticks).

    ``None`` samples are legal and mean "undefined this epoch" (e.g. read
    latency over an epoch that served no reads); renderers show a gap.
    """

    def __init__(self, desc: str = "", epoch_cycles: int = 10_000) -> None:
        if epoch_cycles < 1:
            raise ConfigError("epoch_cycles must be >= 1")
        self.desc = desc
        self.epoch_cycles = epoch_cycles
        self.samples: list[float | None] = []

    def append(self, value: float | None) -> None:
        if value is not None:
            value = float(value)
            if not math.isfinite(value):
                value = None
        self.samples.append(value)

    def reset(self) -> None:
        """Drop every sample (warm-up boundary)."""
        self.samples = []

    def __len__(self) -> int:
        return len(self.samples)

    def export(self) -> dict:
        """Plain-JSON projection of the series."""
        return {
            "kind": "epoch_series",
            "desc": self.desc,
            "epoch_cycles": self.epoch_cycles,
            "samples": [
                None if s is None else round(s, 6) for s in self.samples
            ],
        }


def _canonical(value):
    """Recursively replace non-finite floats with None (JSON-safe)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def export_digest(export: dict) -> str:
    """sha256 digest of a canonical-JSON telemetry export (first 16 hex).

    Deterministic given identical exports; used by the execution journal
    to fingerprint per-task telemetry without inlining the whole payload.
    """
    encoded = json.dumps(_canonical(export), sort_keys=True, allow_nan=False)
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]
