"""Paired A/B of the benchmark: a base checkout against a changed one.

Usage::

    python3 .github/perf_ab.py BASE_DIR HEAD_DIR

Both directories are full checkouts (for example two git worktrees).
For every workload in the base checkout's ``BENCHMARK.json``, PAIRS
pairs of ``perfbench/run.py --seed i --seconds SECONDS`` run, each side
with its own perfbench, alternating which side goes first. The base's
``BENCHMARK.json`` supplies the workloads, the end-to-end metrics, their
``better`` directions and their bounds, so a change is measured against
the contract it started from.

Exits 1 when any run reports ``correct: false`` or prints no result,
when the head's failed share on a workload exceeds the base's, or when
the head's median of an end-to-end metric is worse than the base's
median by more than the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SECONDS = 5


def run(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run; its result object (the last line printed)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} exited "
                 f"{proc.returncode} without a result\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    sides = {"base": Path(argv[0]), "head": Path(argv[1])}
    spec = json.loads((sides["base"] / "BENCHMARK.json").read_text())
    failures = []
    for entry in spec["workloads"]:
        workload = entry["name"]
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for seed in range(PAIRS):
            order = ["base", "head"] if seed % 2 == 0 else ["head", "base"]
            for side in order:
                result = run(sides[side], workload, seed)
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: correct="
                      f"{result['correct']} failed={result['failed']}/"
                      f"{result['attempted']}", flush=True)
                if not result["correct"]:
                    failures.append(
                        f"{workload} seed {seed} {side}: correct: false")
        share = {
            side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for side, rs in runs.items()
        }
        if share["head"] > share["base"]:
            failures.append(f"{workload}: failed share {share['head']:.3f} "
                            f"> base {share['base']:.3f}")
        print(f"\n{workload}: medians over {PAIRS} pairs")
        print(f"  {'metric':24s} {'base':>12s} {'head':>12s} "
              f"{'worse by':>9s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base, head = (
                statistics.median(r["metrics"][name]["value"] for r in rs)
                for rs in (runs["base"], runs["head"])
            )
            worse = (head - base if metric["better"] == "lower"
                     else base - head) / base
            verdict = "FAIL" if worse > bound else "ok"
            print(f"  {name:24s} {base:12.6g} {head:12.6g} {worse:+9.1%} "
                  f"{bound:6.0%}  {verdict}")
            if worse > bound:
                failures.append(
                    f"{workload}: {name} median {head:.6g} is {worse:.1%} "
                    f"worse than base {base:.6g} (bound {bound:.0%})")
        print(flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("perf A/B: no end-to-end metric worse than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
