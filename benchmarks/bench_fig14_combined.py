"""Figure 14: CROW-cache + CROW-ref combined, across LLC capacities.

Four-core HHHH mixes on a futuristic 64 Gbit chip, sweeping the LLC from
1 MiB to 32 MiB, under: CROW-cache alone, CROW-ref alone, both combined
(sharing one copy-row pool), and the ideal bound (100% hit rate, no
refresh).

Paper anchors (8 MiB LLC): combined +20.0% speedup and -22.3% DRAM
energy, more than either mechanism alone, and close to the ideal bound;
benefits hold across all LLC capacities.
"""

import statistics

from repro import SystemConfig, build_mix
from repro.exec import TaskSpec
from repro.units import MIB

from _harness import MIX_INSTRUCTIONS, MIX_WARMUP, report, sweep

LLC_SIZES = (1 * MIB, 8 * MIB, 32 * MIB)
MIX_SEEDS = (1, 2, 3)
MECHANISMS = ("crow-cache", "crow-ref", "crow-combined", "ideal")


def _config(mechanism: str, llc: int) -> SystemConfig:
    return SystemConfig(
        cores=4,
        mechanism=mechanism,
        density_gbit=64,
        llc_size_bytes=llc,
        weak_rows_per_subarray=3,
    )


def _run():
    run_kwargs = dict(
        instructions=MIX_INSTRUCTIONS, warmup_instructions=MIX_WARMUP
    )
    mix_names = {
        seed: [w.name for w in build_mix("HHHH", seed=seed)]
        for seed in MIX_SEEDS
    }
    tasks = []
    for llc in LLC_SIZES:
        for seed in MIX_SEEDS:
            tasks.append(TaskSpec.mix(
                mix_names[seed], _config("baseline", llc), seed=seed,
                **run_kwargs,
            ))
            for mechanism in MECHANISMS:
                tasks.append(TaskSpec.mix(
                    mix_names[seed], _config(mechanism, llc), seed=seed,
                    **run_kwargs,
                ))
    task_results = iter(sweep(tasks))

    rows = []
    results: dict[tuple[int, str], dict[str, float]] = {}
    for llc in LLC_SIZES:
        speedups = {m: [] for m in MECHANISMS}
        energies = {m: [] for m in MECHANISMS}
        for seed in MIX_SEEDS:
            base = next(task_results)
            for mechanism in MECHANISMS:
                result = next(task_results)
                speedups[mechanism].append(result.speedup_over(base))
                energies[mechanism].append(result.energy_ratio(base))
        for mechanism in MECHANISMS:
            entry = {
                "speedup": statistics.mean(speedups[mechanism]),
                "energy": statistics.mean(energies[mechanism]),
            }
            results[(llc, mechanism)] = entry
            rows.append([
                f"{llc // MIB} MiB",
                mechanism,
                f"{entry['speedup']:.3f}",
                f"{entry['energy']:.3f}",
            ])
    report(
        "fig14_combined",
        "Figure 14 — CROW-cache + CROW-ref vs. LLC capacity "
        "(4-core HHHH, 64 Gbit)",
        ["LLC", "mechanism", "speedup", "energy"],
        rows,
        notes=[
            "paper at 8 MiB: combined 1.200 speedup / 0.777 energy; "
            "combined > max(cache, ref) at every LLC capacity; the ideal "
            "bound is 100%-hit CROW-cache with refresh disabled",
        ],
    )
    return results


def test_fig14_combined(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    for llc in LLC_SIZES:
        cache = results[(llc, "crow-cache")]["speedup"]
        ref = results[(llc, "crow-ref")]["speedup"]
        combined = results[(llc, "crow-combined")]["speedup"]
        ideal = results[(llc, "ideal")]["speedup"]
        # Combined beats either mechanism alone (within noise)...
        assert combined >= max(cache, ref) - 0.01, llc
        # ...improves on the baseline clearly...
        assert combined > 1.04
        # ...and stays at or below the ideal bound (within mix noise).
        assert combined <= ideal + 0.04
        # Combined energy beats the baseline and the cache-only config.
        # (The paper also finds combined < ref-alone; with this suite's
        # lower hit rates the MRA power premium can leave ref-alone the
        # energy minimum — see EXPERIMENTS.md.)
        assert results[(llc, "crow-combined")]["energy"] < 1.0
        assert (
            results[(llc, "crow-combined")]["energy"]
            <= results[(llc, "crow-cache")]["energy"] + 0.01
        )
