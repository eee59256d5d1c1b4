"""Shared benchmark harness.

Every benchmark file regenerates one table or figure of the paper: it runs
the relevant configuration sweep, prints a paper-style table (bypassing
pytest's capture so the rows land in the console / tee'd log), and stores
the same rows under ``benchmarks/results/`` for EXPERIMENTS.md.

Run lengths are scaled for a pure-Python cycle simulator (the paper uses
200M-instruction SimPoints on a C++ simulator); set the environment
variable ``REPRO_BENCH_SCALE`` to a float to lengthen or shorten every run
(e.g. ``REPRO_BENCH_SCALE=4`` for higher-fidelity overnight runs).

Every file that simulates a ``System`` builds its whole ``TaskSpec`` list
up front and hands it to :func:`sweep`, the one path from a figure to the
simulator (:class:`repro.exec.ParallelCampaign`). Set
``REPRO_BENCH_JOBS=N`` to fan a figure's simulations out over N worker
processes (``1``, the default, runs serially in-process; either way the
mechanism variants of a workload share one functional warm-up). Set
``REPRO_BENCH_CACHE=<dir>`` to reuse a persistent result cache across
benchmark invocations, and ``REPRO_BENCH_JOURNAL=<file>`` to append a
JSONL execution journal.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile
from pathlib import Path

from repro.analysis import format_table

__all__ = [
    "SCALE",
    "JOBS",
    "INSTRUCTIONS",
    "WARMUP",
    "MIX_INSTRUCTIONS",
    "MIX_WARMUP",
    "SINGLE_CORE_SAMPLE",
    "report",
    "sweep",
]

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Worker processes for figure sweeps (1 = serial, no subprocesses).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")

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


def sweep(tasks) -> list:
    """Run an iterable of ``repro.exec.TaskSpec``, results in task order.

    Every sweep goes through ``ParallelCampaign`` on ``REPRO_BENCH_JOBS``
    workers (``1`` runs in-process), so the tasks that warm identical
    state share it at every job count, and results are byte-identical to
    calling ``run_workload``/``run_mix`` directly. The disk cache is
    ``REPRO_BENCH_CACHE``, or a temp dir removed afterwards, so stale
    results can never leak into a sweep unless explicitly requested.
    """
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
            jobs=JOBS,
            journal=os.environ.get("REPRO_BENCH_JOURNAL"),
            progress=bool(stderr is not None and stderr.isatty()),
        ))
        return campaign.results(tasks)


def report(
    name: str,
    title: str,
    headers: list[str],
    rows: list[list[str]],
    notes: list[str] | None = None,
) -> None:
    """Print a paper-style table (uncaptured) and persist it to disk."""
    text = format_table(headers, rows, title, notes)

    # Bypass pytest capture so the table reaches the tee'd benchmark log.
    stream = getattr(sys, "__stdout__", sys.stdout) or sys.stdout
    stream.write("\n" + text + "\n")
    stream.flush()

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
