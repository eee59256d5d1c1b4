"""Shared benchmark harness.

Every benchmark file regenerates one table or figure of the paper: it runs
the relevant configuration sweep, prints a paper-style table (bypassing
pytest's capture so the rows land in the console / tee'd log), and stores
the same rows under ``benchmarks/results/`` for EXPERIMENTS.md.

Run lengths are scaled for a pure-Python cycle simulator (the paper uses
200M-instruction SimPoints on a C++ simulator); set the environment
variable ``REPRO_BENCH_SCALE`` to a float to lengthen or shorten every run
(e.g. ``REPRO_BENCH_SCALE=4`` for higher-fidelity overnight runs).

Sweeps are embarrassingly parallel: set ``REPRO_BENCH_JOBS=N`` to fan the
figure scripts' simulations out over N worker processes via
:mod:`repro.exec` (``1``, the default, runs serially in-process; either
way the mechanism variants of a workload share one functional warm-up).
Set ``REPRO_BENCH_CACHE=<dir>`` to reuse a persistent result cache across
benchmark invocations, and ``REPRO_BENCH_JOURNAL=<file>`` to append a
JSONL execution journal. ``REPRO_BENCH_TELEMETRY=1`` turns on the
telemetry registry for every swept task (per-task digests land in the
journal; note telemetry is part of the cache key, so telemetry-on and
telemetry-off sweeps cache separately).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

__all__ = [
    "SCALE",
    "JOBS",
    "TELEMETRY",
    "INSTRUCTIONS",
    "WARMUP",
    "MIX_INSTRUCTIONS",
    "MIX_WARMUP",
    "SINGLE_CORE_SAMPLE",
    "report",
    "fmt",
    "sweep",
]

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Worker processes for figure sweeps (1 = serial, no subprocesses).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")

#: Collect telemetry for every swept task (0/1).
TELEMETRY = os.environ.get("REPRO_BENCH_TELEMETRY", "") not in ("", "0")

#: Single-core measured / warm-up instruction counts.
INSTRUCTIONS = int(40_000 * SCALE)
WARMUP = int(15_000 * SCALE)
#: Four-core counts (per core). Multiprogrammed runs need several tREFI
#: windows per measurement or refresh phase becomes visible as noise.
MIX_INSTRUCTIONS = int(30_000 * SCALE)
MIX_WARMUP = int(10_000 * SCALE)

#: Representative single-core sample used by the heavier sweeps (chosen to
#: span L/M/H classes and all access structures).
SINGLE_CORE_SAMPLE = (
    "mcf", "lbm", "libq", "soplex", "sphinx3",       # H
    "h264-dec", "omnetpp", "tpcc64", "jp2-encode",   # M
    "bzip2", "namd",                                 # L
)

RESULTS_DIR = Path(__file__).parent / "results"


def sweep(tasks, jobs: "int | None" = None) -> list:
    """Run a list of ``repro.exec.TaskSpec``, results in task order.

    ``jobs`` defaults to ``REPRO_BENCH_JOBS``. Every sweep goes through
    ``ParallelCampaign`` (``jobs=1`` runs in-process), so the tasks that
    warm identical state share it at every job count, and results are
    byte-identical to calling ``run_workload``/``run_mix`` directly.
    The disk cache is ``REPRO_BENCH_CACHE``, or a temp dir removed
    afterwards, so stale results can never leak into a sweep unless
    explicitly requested.
    """
    tasks = list(tasks)
    if TELEMETRY:
        tasks = [
            dataclasses.replace(
                task, config=dataclasses.replace(task.config, telemetry=True)
            )
            for task in tasks
        ]
    from repro.exec import ParallelCampaign

    cache_dir = os.environ.get("REPRO_BENCH_CACHE")
    stderr = getattr(sys, "__stderr__", None)
    with contextlib.ExitStack() as stack:
        if cache_dir is None:
            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
            )
        campaign = stack.enter_context(ParallelCampaign(
            cache_dir,
            jobs=JOBS if jobs is None else jobs,
            timeout_s=float(os.environ.get("REPRO_BENCH_TIMEOUT", "0") or 0)
            or None,
            journal=os.environ.get("REPRO_BENCH_JOURNAL"),
            progress=bool(stderr is not None and stderr.isatty()),
        ))
        return campaign.results(tasks)


def fmt(value: float, kind: str = "x") -> str:
    """Compact cell formatting: 'x' ratios, '%' percents, 'f' floats."""
    if kind == "x":
        return f"{value:.3f}x"
    if kind == "%":
        return f"{value * 100:.1f}%"
    if kind == "f":
        return f"{value:.3f}"
    return str(value)


def report(
    name: str,
    title: str,
    headers: list[str],
    rows: list[list[str]],
    notes: list[str] | None = None,
) -> None:
    """Print a paper-style table (uncaptured) and persist it to disk."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ] if rows else [len(h) for h in headers]
    lines = [f"== {title} =="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    for note in notes or []:
        lines.append(f"  note: {note}")
    text = "\n".join(lines)

    # Bypass pytest capture so the table reaches the tee'd benchmark log.
    stream = getattr(sys, "__stdout__", sys.stdout) or sys.stdout
    stream.write("\n" + text + "\n")
    stream.flush()

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
