"""Multiprogrammed workload mixes for the four-core experiments.

The paper builds eight groups of four-core mixes, each group defined by
the memory-intensity classes of its members (e.g. ``LLHH`` = two
low-intensity plus two high-intensity applications, chosen at random), with
20 mixes per group — 160 four-core workloads in total (Section 7).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.trace.workloads import Workload, workloads_by_class

__all__ = ["MIX_GROUPS", "build_mix"]

#: The eight class signatures used in Figure 9, lowest to highest pressure.
MIX_GROUPS = (
    "LLLL",
    "LLLH",
    "LLHH",
    "LMMH",
    "MMMM",
    "MMHH",
    "LHHH",
    "HHHH",
)


def build_mix(signature: str, seed: int = 0) -> list[Workload]:
    """One four-core mix: a random member of each class in ``signature``."""
    if len(signature) != 4 or any(c not in "LMH" for c in signature):
        raise ConfigError(f"invalid mix signature {signature!r}")
    rng = np.random.default_rng((seed, 0xA11))
    mix = []
    for cls in signature:
        pool = workloads_by_class(cls)
        mix.append(pool[int(rng.integers(len(pool)))])
    return mix
