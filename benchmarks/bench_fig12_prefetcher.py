"""Figure 12: CROW-cache composed with a stride prefetcher.

Four configurations per workload: baseline, RPT stride prefetcher alone,
CROW-cache alone, and prefetcher + CROW-cache. The paper finds CROW-cache
serves both demand and prefetch requests with low latency, adding an
average 5.7% on top of the prefetcher.
"""

import statistics

from repro import SystemConfig
from repro.exec import TaskSpec

from _harness import INSTRUCTIONS, WARMUP, report, sweep

#: Sampled to span prefetcher effectiveness, as the paper does: streaming
#: and strided workloads prefetch well, random/pointer ones do not.
SAMPLE = ("libq", "lbm", "gems", "tpch6", "h264-dec", "mcf")

CONFIGS = {
    "prefetcher": SystemConfig(prefetcher=True),
    "crow": SystemConfig(mechanism="crow-cache"),
    "prefetcher+crow": SystemConfig(mechanism="crow-cache", prefetcher=True),
}


def _run():
    run = dict(instructions=INSTRUCTIONS, warmup_instructions=WARMUP)
    results = iter(sweep(
        TaskSpec.workload(name, config, **run)
        for name in SAMPLE
        for config in (SystemConfig(), *CONFIGS.values())
    ))
    rows = []
    speedups = {key: [] for key in CONFIGS}
    for name in SAMPLE:
        base = next(results)
        cells = [name]
        for key in CONFIGS:
            result = next(results)
            speedup = result.speedup_over(base)
            speedups[key].append(speedup)
            cells.append(f"{speedup:.3f}")
        rows.append(cells)
    rows.append([
        "AVERAGE",
        *(f"{statistics.mean(speedups[key]):.3f}" for key in CONFIGS),
    ])
    report(
        "fig12_prefetcher",
        "Figure 12 — CROW-cache and stride prefetching (speedup vs. baseline)",
        ["workload", *CONFIGS],
        rows,
        notes=[
            "paper: CROW-cache adds +5.7% on average over the prefetcher "
            "alone; the combination is the best configuration",
        ],
    )
    return speedups


def test_fig12_prefetcher(benchmark):
    speedups = benchmark.pedantic(_run, rounds=1, iterations=1)
    pf = statistics.mean(speedups["prefetcher"])
    both = statistics.mean(speedups["prefetcher+crow"])
    crow = statistics.mean(speedups["crow"])
    # Prefetching helps this (stream-heavy) sample.
    assert pf > 1.01
    # CROW-cache composes with prefetching: the combination wins.
    assert both > pf
    assert both >= crow
