"""Hierarchical, typed simulation statistics (gem5/Ramulator-style).

A :class:`StatRegistry` is a tree of named groups, each holding typed
stats:

* :class:`Counter` — monotonic event count;
* :class:`Gauge` — instantaneous value (occupancy, residency fraction);
* :class:`Ratio` — numerator/denominator pair whose value is ``None``
  (never a division error) when the denominator is zero;
* :class:`Histogram` — log2-bucketed distribution with exact count, sum,
  min and max, and interpolated percentiles (p50/p95/p99);
* :class:`EpochSeries` — a value sampled once per epoch (epoch length in
  memory ticks), giving every statistic a time axis.

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
from typing import Callable, Iterator

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Ratio",
    "Histogram",
    "EpochSeries",
    "StatGroup",
    "StatRegistry",
    "export_digest",
]


class Stat:
    """Base class: a named, described, exportable statistic."""

    kind = "stat"

    def __init__(self, name: str, desc: str = "") -> None:
        if not name or "." in name:
            raise ConfigError(
                f"stat name must be non-empty and dot-free, got {name!r}"
            )
        self.name = name
        self.desc = desc

    def reset(self) -> None:
        """Zero the stat (warm-up boundary)."""
        raise NotImplementedError

    def export(self) -> dict:
        """Plain-JSON projection of this stat."""
        raise NotImplementedError

    def _base_export(self) -> dict:
        return {"kind": self.kind, "desc": self.desc}


class Counter(Stat):
    """Monotonic event count."""

    kind = "counter"

    def __init__(self, name: str, desc: str = "") -> None:
        super().__init__(name, desc)
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def set(self, value: int) -> None:
        """Overwrite the value (harvest-time population from raw counters)."""
        self.value = value

    def reset(self) -> None:
        self.value = 0

    def export(self) -> dict:
        return {**self._base_export(), "value": self.value}


class Gauge(Stat):
    """Instantaneous value (occupancy, fraction, temperature...)."""

    kind = "gauge"

    def __init__(self, name: str, desc: str = "") -> None:
        super().__init__(name, desc)
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = None

    def export(self) -> dict:
        return {**self._base_export(), "value": self.value}


#: A Ratio term: a Stat whose ``value`` is read, or a zero-arg callable.
RatioTerm = "Stat | Callable[[], float] | None"


class Ratio(Stat):
    """A derived numerator/denominator statistic.

    The terms may be other stats (their ``value`` is read at export) or
    zero-argument callables. :attr:`value` is **defined for the empty
    case**: it returns ``None`` when the denominator is zero, never a
    ``ZeroDivisionError`` — consumers print ``-`` or skip it.
    """

    kind = "ratio"

    def __init__(
        self,
        name: str,
        desc: str = "",
        numerator=None,
        denominator=None,
    ) -> None:
        super().__init__(name, desc)
        self._num = numerator
        self._den = denominator

    @staticmethod
    def _resolve(term) -> float:
        if term is None:
            return 0.0
        if isinstance(term, Stat):
            return float(term.value or 0)
        if callable(term):
            return float(term())
        return float(term)

    @property
    def numerator(self) -> float:
        return self._resolve(self._num)

    @property
    def denominator(self) -> float:
        return self._resolve(self._den)

    @property
    def value(self) -> float | None:
        """numerator/denominator, or ``None`` when the denominator is 0."""
        den = self.denominator
        if den == 0:
            return None
        return self.numerator / den

    def set(self, numerator, denominator) -> None:
        self._num = numerator
        self._den = denominator

    def reset(self) -> None:
        pass  # derived: resets with its terms

    def export(self) -> dict:
        return {
            **self._base_export(),
            "numerator": self.numerator,
            "denominator": self.denominator,
            "value": self.value,
        }


class Histogram(Stat):
    """Log2-bucketed distribution (latencies span orders of magnitude).

    Bucket ``i`` holds values ``v`` with ``v.bit_length() == i`` — i.e.
    ``[2**(i-1), 2**i)`` for ``i >= 1``, with bucket 0 holding zeros.
    Alongside the buckets the exact count, sum, min and max are kept, so
    the mean is exact and only percentiles are bucket-interpolated.
    """

    kind = "histogram"

    def __init__(self, name: str, desc: str = "", max_buckets: int = 64) -> None:
        super().__init__(name, desc)
        self.max_buckets = max_buckets
        self.reset()

    def reset(self) -> None:
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
        populated = {
            str(i): n for i, n in enumerate(self.buckets) if n
        }
        out = {
            **self._base_export(),
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


class EpochSeries(Stat):
    """A statistic sampled once per epoch (epoch length in memory ticks).

    ``None`` samples are legal and mean "undefined this epoch" (e.g. read
    latency over an epoch that served no reads); renderers show a gap.
    """

    kind = "epoch_series"

    def __init__(
        self, name: str, desc: str = "", epoch_cycles: int = 10_000
    ) -> None:
        super().__init__(name, desc)
        if epoch_cycles < 1:
            raise ConfigError("epoch_cycles must be >= 1")
        self.epoch_cycles = epoch_cycles
        self.samples: list[float | None] = []

    def append(self, value: float | None) -> None:
        if value is not None:
            value = float(value)
            if not math.isfinite(value):
                value = None
        self.samples.append(value)

    def reset(self) -> None:
        self.samples = []

    def __len__(self) -> int:
        return len(self.samples)

    def export(self) -> dict:
        return {
            **self._base_export(),
            "epoch_cycles": self.epoch_cycles,
            "samples": [
                None if s is None else round(s, 6) for s in self.samples
            ],
        }


class StatGroup:
    """One node of the registry tree: named stats + named child groups."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._stats: dict[str, Stat] = {}
        self._children: dict[str, StatGroup] = {}

    # -- construction ----------------------------------------------------

    def group(self, name: str) -> "StatGroup":
        """Child group, created on first use. Dotted names nest."""
        head, _, rest = name.partition(".")
        if head not in self._children:
            if head in self._stats:
                raise ConfigError(f"{head!r} is already a stat in {self.name!r}")
            self._children[head] = StatGroup(head)
        child = self._children[head]
        return child.group(rest) if rest else child

    def _register(self, stat: Stat) -> Stat:
        if stat.name in self._stats or stat.name in self._children:
            raise ConfigError(
                f"duplicate stat {stat.name!r} in group {self.name!r}"
            )
        self._stats[stat.name] = stat
        return stat

    def counter(self, name: str, desc: str = "") -> Counter:
        return self._register(Counter(name, desc))  # type: ignore[return-value]

    def gauge(self, name: str, desc: str = "") -> Gauge:
        return self._register(Gauge(name, desc))  # type: ignore[return-value]

    def ratio(
        self, name: str, desc: str = "", numerator=None, denominator=None
    ) -> Ratio:
        return self._register(
            Ratio(name, desc, numerator, denominator)
        )  # type: ignore[return-value]

    def histogram(self, name: str, desc: str = "") -> Histogram:
        return self._register(Histogram(name, desc))  # type: ignore[return-value]

    def series(
        self, name: str, desc: str = "", epoch_cycles: int = 10_000
    ) -> EpochSeries:
        return self._register(
            EpochSeries(name, desc, epoch_cycles)
        )  # type: ignore[return-value]

    # -- access ----------------------------------------------------------

    def __getitem__(self, path: str) -> Stat:
        head, _, rest = path.partition(".")
        if rest:
            return self._children[head][rest]
        return self._stats[head]

    def flatten(self, prefix: str = "") -> Iterator[tuple[str, Stat]]:
        """Yield ``(dotted_path, stat)`` pairs, depth-first, in order."""
        for name, stat in self._stats.items():
            yield (f"{prefix}{name}", stat)
        for name, child in self._children.items():
            yield from child.flatten(f"{prefix}{name}.")

    def reset(self) -> None:
        for _, stat in self.flatten():
            stat.reset()

    def export(self) -> dict:
        """Nested plain-dict projection of the whole subtree."""
        out: dict = {}
        for name, stat in self._stats.items():
            out[name] = stat.export()
        for name, child in self._children.items():
            out[name] = child.export()
        return out


class StatRegistry(StatGroup):
    """The root of a stats tree for one simulation run."""

    def __init__(self) -> None:
        super().__init__("root")

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys — byte-stable across runs)."""
        return json.dumps(_canonical(self.export()), sort_keys=True,
                          allow_nan=False)

    def digest(self) -> str:
        """Content digest of the canonical export."""
        return export_digest(self.export())


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
