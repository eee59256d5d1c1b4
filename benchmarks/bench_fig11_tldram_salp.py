"""Figure 11: CROW-cache vs. TL-DRAM and SALP.

Three panels: (a) single-core speedup, (b) DRAM chip area overhead,
(c) DRAM energy. The paper's conclusions, which this benchmark asserts:

* TL-DRAM-8 is *faster* than CROW-8 (its near segment cuts tRCD by 73%)
  but costs 6.9% chip area against CROW's 0.48%.
* SALP with the open-page policy can also beat CROW-cache in performance,
  but its many concurrently-open row buffers burn static energy, while
  CROW-cache *reduces* energy.
"""

import statistics

from repro import SystemConfig
from repro.circuit import DecoderAreaModel
from repro.exec import TaskSpec

from _harness import INSTRUCTIONS, WARMUP, report, sweep

CONFIGS = {
    "crow-1": SystemConfig(mechanism="crow-cache", copy_rows=1),
    "crow-8": SystemConfig(mechanism="crow-cache", copy_rows=8),
    "tldram-8": SystemConfig(mechanism="tl-dram", tldram_near_rows=8),
    "salp-128-O": SystemConfig(
        mechanism="salp", salp_subarrays_per_bank=128, salp_open_page=True
    ),
    "salp-256-O": SystemConfig(
        mechanism="salp", salp_subarrays_per_bank=256, salp_open_page=True
    ),
}

#: High-locality sample where in-DRAM caching matters.
SAMPLE = ("h264-dec", "omnetpp", "soplex", "lbm", "sphinx3", "tpch6",
          "mcf", "libq")


def _area_overhead(key: str) -> float:
    area = DecoderAreaModel()
    if key.startswith("crow"):
        return area.crow_chip_overhead(int(key.split("-")[1]))
    if key.startswith("tldram"):
        return area.tldram_chip_overhead(int(key.split("-")[1]))
    return area.salp_chip_overhead(int(key.split("-")[1]))


def _run():
    run = dict(instructions=INSTRUCTIONS, warmup_instructions=WARMUP)
    results = iter(sweep(
        TaskSpec.workload(name, config, **run)
        for name in SAMPLE
        for config in (SystemConfig(), *CONFIGS.values())
    ))
    speedups = {key: [] for key in CONFIGS}
    energies = {key: [] for key in CONFIGS}
    for name in SAMPLE:
        base = next(results)
        for key in CONFIGS:
            result = next(results)
            speedups[key].append(result.speedup_over(base))
            energies[key].append(result.energy_ratio(base))
    rows = []
    for key in CONFIGS:
        rows.append([
            key,
            f"{statistics.mean(speedups[key]):.3f}",
            f"{statistics.mean(energies[key]):.3f}",
            f"{_area_overhead(key) * 100:.2f}%",
        ])
    report(
        "fig11_tldram_salp",
        "Figure 11 — CROW-cache vs. TL-DRAM vs. SALP "
        f"({len(SAMPLE)}-workload sample)",
        ["mechanism", "speedup", "energy", "chip area overhead"],
        rows,
        notes=[
            "paper: TL-DRAM-8 1.138 speedup at 6.9% area; CROW-8 1.071 at "
            "0.48%; SALP-O saves latency but adds static energy "
            "(SALP-256-O: +58.4% energy, 28.9% area)",
        ],
    )
    return speedups, energies


def test_fig11_tldram_salp(benchmark):
    speedups, energies = benchmark.pedantic(_run, rounds=1, iterations=1)

    def mean(d, key):
        return statistics.mean(d[key])

    # (a) TL-DRAM-8 outperforms CROW-8.
    assert mean(speedups, "tldram-8") > mean(speedups, "crow-8")
    # (b) ...but at vastly higher area cost.
    assert _area_overhead("tldram-8") > 10 * _area_overhead("crow-8")
    assert _area_overhead("salp-256-O") > 50 * _area_overhead("crow-8")
    # (c) CROW-8 reduces energy; SALP's open buffers increase it.
    assert mean(energies, "crow-8") < 1.0
    assert mean(energies, "salp-256-O") > mean(energies, "crow-8")
    # CROW-8 beats CROW-1 or matches it.
    assert mean(speedups, "crow-8") >= mean(speedups, "crow-1") - 0.005
