"""Terminal-friendly rendering of sampled time series."""

from __future__ import annotations

import math

from repro.errors import ConfigError

__all__ = ["ascii_timeseries"]


def ascii_timeseries(
    values: "list[float | None]",
    width: int = 60,
    height: int = 8,
    title: str = "",
    unit: str = "",
) -> str:
    """Render a sampled time series as a column chart.

    Built for telemetry epoch series: ``values[i]`` is the sample for
    epoch ``i``; ``None`` (or NaN/inf) samples render as gaps, which is
    how :class:`repro.telemetry.EpochSeries` encodes epochs where the
    quantity was undefined (e.g. hit rate with zero accesses).

    Samples are downsampled by averaging when there are more than
    ``width`` of them. The y-axis is annotated with the peak and zero,
    and the x-axis with the epoch index range.

    Raises :class:`ConfigError` when ``values`` is empty or every sample
    is a gap.
    """
    if not values:
        raise ConfigError("empty series")
    if width < 8 or height < 2:
        raise ConfigError("width must be >= 8 and height >= 2")

    def clean(v: "float | None") -> "float | None":
        if v is None:
            return None
        v = float(v)
        return v if math.isfinite(v) else None

    samples = [clean(v) for v in values]
    if all(v is None for v in samples):
        raise ConfigError("series has no finite samples")

    # Downsample to <= width columns by averaging each chunk's defined
    # samples (a chunk of only gaps stays a gap).
    if len(samples) > width:
        columns: "list[float | None]" = []
        for i in range(width):
            lo = i * len(samples) // width
            hi = max(lo + 1, (i + 1) * len(samples) // width)
            chunk = [v for v in samples[lo:hi] if v is not None]
            columns.append(sum(chunk) / len(chunk) if chunk else None)
    else:
        columns = samples

    defined = [v for v in columns if v is not None]
    peak = max(defined)
    floor = min(0.0, min(defined))
    span = (peak - floor) or 1.0
    grid = [[" "] * len(columns) for _ in range(height)]
    for x, value in enumerate(columns):
        if value is None:
            continue
        filled = max(1, round((value - floor) / span * height))
        for y in range(filled):
            grid[height - 1 - y][x] = "#"

    axis = f"{peak:.4g}{unit}"
    lines = []
    if title:
        lines.append(title)
    for y, row in enumerate(grid):
        prefix = axis if y == 0 else " " * len(axis)
        lines.append(f"{prefix} |{''.join(row)}")
    zero = f"{floor:.4g}{unit}".rjust(len(axis))
    lines.append(f"{zero} +{'-' * len(columns)}")
    lines.append(
        f"{' ' * len(axis)}  epoch 0..{len(values) - 1}"
        f" ({len(values)} samples)"
    )
    return "\n".join(lines)
