"""Figure 9: four-core weighted speedup of CROW-cache by mix group.

Runs multiprogrammed mixes from each intensity-class group (LLLL ...
HHHH) under the baseline and CROW-cache configurations and reports the
weighted-speedup improvement per group.

Paper anchors: speedup grows with the group's memory intensity (HHHH:
+7.4% for CROW-8 vs. +0.4% for LLLL), and CROW-8 clearly beats CROW-1 in
four-core runs because co-running workloads contend for each subarray's
copy rows.
"""

import statistics

from repro import SystemConfig, build_mix, derive_trace_seed
from repro.exec import TaskSpec

from _harness import (
    MIX_INSTRUCTIONS,
    MIX_WARMUP,
    check_claims,
    report,
    sweep,
)

#: Groups (subset of the paper's eight) and mixes per group, sized for a
#: Python-speed run; REPRO_BENCH_SCALE lengthens the runs themselves.
GROUPS = ("LLLL", "LLHH", "MMHH", "HHHH")
MIXES_PER_GROUP = 3

CONFIGS = {
    "crow-1": SystemConfig(cores=4, mechanism="crow-cache", copy_rows=1),
    "crow-8": SystemConfig(cores=4, mechanism="crow-cache", copy_rows=8),
    "ideal": SystemConfig(cores=4, mechanism="ideal-crow-cache"),
}


def _run_groups():
    run_kwargs = dict(
        instructions=MIX_INSTRUCTIONS, warmup_instructions=MIX_WARMUP
    )
    # Enumerate every simulation up front so the whole figure is one sweep.
    mixes = {
        (group, index): [w.name for w in build_mix(group, seed=index + 1)]
        for group in GROUPS
        for index in range(MIXES_PER_GROUP)
    }
    alone_names = sorted({name for names in mixes.values() for name in names})
    # An alone run replays the trace that core 0 of a seed-0 mix gets:
    # derive_trace_seed(0, 0).
    alone_tasks = [
        TaskSpec.workload(
            name, SystemConfig(), seed=derive_trace_seed(0, 0), **run_kwargs
        )
        for name in alone_names
    ]
    mix_tasks = []
    for (group, index), names in mixes.items():
        mix_tasks.append(
            TaskSpec.mix(names, SystemConfig(cores=4), seed=index,
                         **run_kwargs)
        )
        for config in CONFIGS.values():
            mix_tasks.append(
                TaskSpec.mix(names, config, seed=index, **run_kwargs)
            )
    results = sweep(alone_tasks + mix_tasks)

    alone_cache = {
        name: result.ipc
        for name, result in zip(alone_names, results[:len(alone_names)])
    }
    mix_results = iter(results[len(alone_names):])
    rows = []
    group_speedups: dict[str, dict[str, list[float]]] = {}
    for group in GROUPS:
        speedups = {key: [] for key in CONFIGS}
        for index in range(MIXES_PER_GROUP):
            names = mixes[(group, index)]
            alone = [alone_cache[name] for name in names]
            base = next(mix_results)
            ws_base = base.weighted_speedup(alone)
            for key in CONFIGS:
                result = next(mix_results)
                speedups[key].append(result.weighted_speedup(alone) / ws_base)
        group_speedups[group] = speedups
        rows.append([
            group,
            *(f"{statistics.mean(speedups[key]):.3f}" for key in CONFIGS),
        ])
    report(
        "fig9_four_core",
        "Figure 9 — four-core weighted speedup over baseline, by mix group",
        ["group", *CONFIGS],
        rows,
        notes=[
            f"{MIXES_PER_GROUP} mixes per group; weighted speedup uses "
            "baseline-configuration alone-IPCs for every configuration",
            "paper anchors: HHHH +7.4% (crow-8) vs LLLL +0.4%; crow-8 > "
            "crow-1 under four-core contention",
        ],
    )
    return group_speedups


def test_fig9_four_core(benchmark):
    groups = benchmark.pedantic(_run_groups, rounds=1, iterations=1)

    def mean(group, key):
        return statistics.mean(groups[group][key])

    # The paper's Figure 9 shape: benefit concentrates in the memory-
    # intensive groups. Multiprogrammed runs at Python-feasible lengths
    # carry scheduling/refresh-phase noise of a few percent per group, so
    # the assertions compare group aggregates rather than single cells.
    high = statistics.mean(
        [mean("MMHH", "crow-8"), mean("HHHH", "crow-8")]
    )
    low = statistics.mean(
        [mean("LLLL", "crow-8"), mean("LLHH", "crow-8")]
    )
    best = max(mean("MMHH", "crow-8"), mean("HHHH", "crow-8"))
    check_claims([
        (f"high > low - 0.005 (MMHH/HHHH crow-8 {high:.4f}, "
         f"LLLL/LLHH {low:.4f})", high > low - 0.005),
        # Some memory-intensive group shows a win...
        (f"max(MMHH, HHHH) crow-8 > 1.0 ({best:.4f})", best > 1.0),
        # ...while every group stays within the sane band (no disasters).
        *(
            (f"0.85 < {group} {key} < 1.40 ({mean(group, key):.4f})",
             0.85 < mean(group, key) < 1.40)
            for group in GROUPS
            for key in CONFIGS
        ),
    ])
