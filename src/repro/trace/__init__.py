"""Synthetic workload traces.

The paper drives Ramulator with Pin-collected traces of SPEC CPU2006, TPC,
STREAM and MediaBench applications. Those binaries and traces are not
available here, so this package provides *parametric generators* that
reproduce the memory behaviours the CROW results depend on — memory
intensity (MPKI class), row-buffer locality, working-set size, read/write
mix and stride regularity — plus a named workload suite
(:mod:`repro.trace.workloads`) whose members mimic the applications named
in Figure 8, and multiprogrammed mix construction for the four-core
experiments (:mod:`repro.trace.mixes`).
"""

from repro.trace.synth import (
    hotset_trace,
    mixed_trace,
    random_trace,
    streaming_trace,
    strided_trace,
)
from repro.trace.workloads import (
    Workload,
    WORKLOADS,
    workload,
    workloads_by_class,
)
from repro.trace.mixes import MIX_GROUPS, build_mix
from repro.trace.stream import TraceStream

__all__ = [
    "TraceStream",
    "streaming_trace",
    "random_trace",
    "strided_trace",
    "hotset_trace",
    "mixed_trace",
    "Workload",
    "WORKLOADS",
    "workload",
    "workloads_by_class",
    "MIX_GROUPS",
    "build_mix",
]
