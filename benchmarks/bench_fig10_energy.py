"""Figure 10: DRAM energy consumption with CROW-cache.

Average DRAM energy of CROW-cache runs normalized to the conventional
baseline, for single-core workloads and four-core mixes. The paper reports
-8.2% (single-core) and -6.9% (four-core): the ACT-t/ACT-c commands cost
5.8% more power each, but the execution-time reduction cuts background and
refresh energy by more.
"""

import statistics

from repro import SystemConfig, build_mix
from repro.exec import TaskSpec

from _harness import (
    INSTRUCTIONS,
    MIX_INSTRUCTIONS,
    MIX_WARMUP,
    SINGLE_CORE_SAMPLE,
    WARMUP,
    report,
    sweep,
)

MIX_CASES = (
    ("MMHH", 1), ("MMHH", 2), ("HHHH", 1), ("HHHH", 2), ("LLHH", 1),
)


def _run():
    single_run = dict(instructions=INSTRUCTIONS, warmup_instructions=WARMUP)
    mix_run = dict(
        instructions=MIX_INSTRUCTIONS, warmup_instructions=MIX_WARMUP
    )
    tasks = []
    for name in SINGLE_CORE_SAMPLE:
        tasks.append(TaskSpec.workload(name, SystemConfig(), **single_run))
        tasks.append(TaskSpec.workload(
            name, SystemConfig(mechanism="crow-cache"), **single_run
        ))
    for group, seed in MIX_CASES:
        names = [w.name for w in build_mix(group, seed=seed)]
        tasks.append(TaskSpec.mix(
            names, SystemConfig(cores=4), **mix_run
        ))
        tasks.append(TaskSpec.mix(
            names, SystemConfig(cores=4, mechanism="crow-cache"), **mix_run
        ))
    results = iter(sweep(tasks))

    rows = []
    single_ratios = []
    for name in SINGLE_CORE_SAMPLE:
        base = next(results)
        crow = next(results)
        ratio = crow.energy_ratio(base)
        single_ratios.append(ratio)
        rows.append([name, "1-core", f"{ratio:.3f}",
                     f"{crow.speedup_over(base):.3f}"])
    mix_ratios = []
    for group, seed in MIX_CASES:
        base = next(results)
        crow = next(results)
        ratio = crow.energy_ratio(base)
        mix_ratios.append(ratio)
        rows.append([f"{group}#{seed}", "4-core", f"{ratio:.3f}", "-"])
    rows.append(["AVERAGE 1-core", "",
                 f"{statistics.mean(single_ratios):.3f}", ""])
    rows.append(["AVERAGE 4-core", "",
                 f"{statistics.mean(mix_ratios):.3f}", ""])
    report(
        "fig10_energy",
        "Figure 10 — DRAM energy with CROW-cache (normalized to baseline)",
        ["workload", "cores", "energy ratio", "speedup"],
        rows,
        notes=["paper averages: 0.918 (1-core), 0.931 (4-core)"],
    )
    return single_ratios, mix_ratios


def test_fig10_energy(benchmark):
    single, mixes = benchmark.pedantic(_run, rounds=1, iterations=1)
    # The suite-average energy goes down.
    assert statistics.mean(single) < 1.0
    assert statistics.mean(mixes) < 1.02
    # High-locality workloads save clearly; nothing explodes.
    assert min(single) < 0.97
    assert max(single) < 1.05
