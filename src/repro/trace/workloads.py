"""Named single-core workloads mimicking the paper's benchmark suite.

The paper evaluates 44 applications from SPEC CPU2006, TPC, STREAM and
MediaBench plus two microbenchmarks (*random*, *streaming*). Each entry
here is a synthetic stand-in for one of the applications named in
Figure 8, parameterised to land in the same memory-intensity class
(L: MPKI < 1, M: 1 <= MPKI < 10, H: MPKI >= 10 — Section 7) and to show
the qualitative access structure the paper attributes to it (e.g.
*libquantum* streams with very high row-buffer locality; *mcf* chases
pointers over a huge footprint; *h264-dec* re-touches a medium hot set,
which is what makes CROW-cache shine on it).

MPKI class membership is *measured*, not asserted: the Figure 8 benchmark
prints each workload's simulated MPKI next to its speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.trace.chunks import ChunkTrace
from repro.trace.synth import (
    hotset_trace,
    mixed_trace,
    multistream_trace,
    random_trace,
    streaming_trace,
    strided_trace,
)
from repro.units import GIB, KIB, MIB

__all__ = ["Workload", "WORKLOADS", "workload", "workloads_by_class"]


@dataclass(frozen=True)
class Workload:
    """One named synthetic workload."""

    name: str
    expected_class: str      # 'L', 'M' or 'H' (verified by measurement)
    suite: str               # which paper suite it stands in for
    description: str
    factory: Callable[[int], ChunkTrace]

    def trace(self, seed: int = 0) -> ChunkTrace:
        """A fresh trace (deterministic in ``seed``)."""
        trace = self.factory(seed)
        if not isinstance(trace, ChunkTrace):
            # Pre-warm and snapshot restore read the chunk views.
            raise ConfigError(
                f"workload {self.name!r}: factory returned "
                f"{type(trace).__name__}, not a ChunkTrace"
            )
        return trace


def _w(name, cls, suite, description, factory) -> Workload:
    return Workload(name, cls, suite, description, factory)


def _seed(name: str, seed: int) -> int:
    # zlib.crc32 is stable across processes (unlike the salted hash()).
    import zlib

    return (zlib.crc32(name.encode()) & 0xFFFF) * 31 + seed


WORKLOADS: dict[str, Workload] = {}


def _register(workload: Workload) -> None:
    WORKLOADS[workload.name] = workload


# ----------------------------------------------------------------------
# High memory intensity (MPKI >= 10)
# ----------------------------------------------------------------------
_register(_w(
    "mcf", "H", "SPEC CPU2006",
    "pointer chasing over a huge working set; low row locality",
    lambda seed: random_trace(768 * MIB, bubbles_mean=12.0,
                              write_fraction=0.2, seed=_seed("mcf", seed)),
))
_register(_w(
    "lbm", "H", "SPEC CPU2006",
    "fluid-dynamics stencil: parallel grid sweeps with heavy writes",
    lambda seed: multistream_trace(400 * MIB, streams=4, bubbles_mean=18.0,
                                   write_fraction=0.5, seed=_seed("lbm", seed)),
))
_register(_w(
    "milc", "H", "SPEC CPU2006",
    "lattice QCD: many structured lattice sweeps in flight",
    lambda seed: multistream_trace(512 * MIB, streams=24, bubbles_mean=22.0,
                                   write_fraction=0.15, seed=_seed("milc", seed)),
))
_register(_w(
    "libq", "H", "SPEC CPU2006",
    "libquantum: streaming with very high row-buffer locality",
    lambda seed: streaming_trace(32 * MIB, bubbles_mean=20.0,
                                 write_fraction=0.0, seed=_seed("libq", seed)),
))
_register(_w(
    "gems", "H", "SPEC CPU2006",
    "GemsFDTD: large strided sweeps",
    lambda seed: strided_trace(256 * MIB, stride_bytes=512, bubbles_mean=22.0,
                               write_fraction=0.1, seed=_seed("gems", seed)),
))
_register(_w(
    "soplex", "H", "SPEC CPU2006",
    "LP solver: many interleaved column scans over the constraint matrix",
    lambda seed: multistream_trace(192 * MIB, streams=12, bubbles_mean=25.0,
                                   write_fraction=0.2,
                                   seed=_seed("soplex", seed)),
))
_register(_w(
    "leslie3d", "H", "SPEC CPU2006",
    "multigrid stencil with medium strides and writebacks",
    lambda seed: strided_trace(192 * MIB, stride_bytes=128, bubbles_mean=25.0,
                               write_fraction=0.3, seed=_seed("leslie3d", seed)),
))
_register(_w(
    "sphinx3", "H", "SPEC CPU2006",
    "speech recognition: interleaved sweeps over the acoustic model",
    lambda seed: multistream_trace(48 * MIB, streams=16, bubbles_mean=25.0,
                                   write_fraction=0.1,
                                   seed=_seed("sphinx3", seed)),
))
_register(_w(
    "stream-triad", "H", "STREAM",
    "STREAM triad: three concurrent sequential streams",
    lambda seed: mixed_trace([
        (streaming_trace(96 * MIB, bubbles_mean=16.0, write_fraction=0.0,
                         base_vaddr=0x10_0000_0000,
                         seed=_seed("triad-a", seed)), 2),
        (streaming_trace(96 * MIB, bubbles_mean=16.0, write_fraction=0.0,
                         base_vaddr=0x20_0000_0000,
                         seed=_seed("triad-b", seed)), 1),
        (streaming_trace(96 * MIB, bubbles_mean=16.0, write_fraction=1.0,
                         base_vaddr=0x30_0000_0000,
                         seed=_seed("triad-c", seed)), 1),
    ]),
))
_register(_w(
    "random", "H", "microbenchmark",
    "the paper's synthetic GUPS-like random-access microbenchmark",
    lambda seed: random_trace(1 * GIB, bubbles_mean=6.0, write_fraction=0.5,
                              seed=_seed("random", seed)),
))
_register(_w(
    "streaming", "H", "microbenchmark",
    "the paper's synthetic streaming microbenchmark",
    lambda seed: streaming_trace(1 * GIB, bubbles_mean=6.0,
                                 write_fraction=0.0,
                                 seed=_seed("streaming", seed)),
))

# ----------------------------------------------------------------------
# Medium memory intensity (1 <= MPKI < 10)
# ----------------------------------------------------------------------
_register(_w(
    "omnetpp", "M", "SPEC CPU2006",
    "discrete event simulation: many event queues advanced in parallel",
    lambda seed: multistream_trace(64 * MIB, streams=24, bubbles_mean=150.0,
                                   write_fraction=0.3,
                                   seed=_seed("omnetpp", seed)),
))
_register(_w(
    "astar", "M", "SPEC CPU2006",
    "path finding: frontier expansion re-touches recent map tiles",
    lambda seed: multistream_trace(32 * MIB, streams=12, bubbles_mean=170.0,
                                   write_fraction=0.2,
                                   seed=_seed("astar", seed)),
))
_register(_w(
    "gcc", "M", "SPEC CPU2006",
    "compiler: mixed pointer structures and sequential scans",
    lambda seed: mixed_trace([
        (multistream_trace(24 * MIB, streams=8, bubbles_mean=180.0,
                           write_fraction=0.3, seed=_seed("gcc-a", seed)), 512),
        (streaming_trace(8 * MIB, bubbles_mean=180.0, write_fraction=0.1,
                         seed=_seed("gcc-b", seed)), 256),
    ]),
))
_register(_w(
    "h264-dec", "M", "MediaBench",
    "video decode: reference frames re-touched; high in-DRAM locality",
    lambda seed: multistream_trace(24 * MIB, streams=16, bubbles_mean=120.0,
                                   write_fraction=0.25,
                                   seed=_seed("h264-dec", seed)),
))
_register(_w(
    "jp2-encode", "M", "MediaBench",
    "JPEG2000 encode: streaming tiles with heavy writes",
    lambda seed: streaming_trace(20 * MIB, bubbles_mean=130.0,
                                 write_fraction=0.4,
                                 seed=_seed("jp2-encode", seed)),
))
_register(_w(
    "jp2-decode", "M", "MediaBench",
    "JPEG2000 decode: streaming tiles, writes dominate",
    lambda seed: streaming_trace(24 * MIB, bubbles_mean=140.0,
                                 write_fraction=0.5,
                                 seed=_seed("jp2-decode", seed)),
))
_register(_w(
    "tpcc64", "M", "TPC",
    "OLTP: random record accesses with moderate intensity",
    lambda seed: random_trace(128 * MIB, bubbles_mean=150.0,
                              write_fraction=0.35, seed=_seed("tpcc64", seed)),
))
_register(_w(
    "tpch2", "M", "TPC",
    "decision support Q2: parallel table scans plus index probes",
    lambda seed: mixed_trace([
        (multistream_trace(96 * MIB, streams=6, bubbles_mean=140.0,
                           write_fraction=0.05,
                           seed=_seed("tpch2-a", seed)), 768),
        (random_trace(32 * MIB, bubbles_mean=140.0, write_fraction=0.1,
                      seed=_seed("tpch2-b", seed)), 256),
    ]),
))
_register(_w(
    "tpch6", "M", "TPC",
    "decision support Q6: pure scan at moderate rate",
    lambda seed: streaming_trace(128 * MIB, bubbles_mean=160.0,
                                 write_fraction=0.05,
                                 seed=_seed("tpch6", seed)),
))
_register(_w(
    "cactus", "M", "SPEC CPU2006",
    "cactusADM: strided grid updates",
    lambda seed: strided_trace(96 * MIB, stride_bytes=320, bubbles_mean=150.0,
                               write_fraction=0.3, seed=_seed("cactus", seed)),
))

# ----------------------------------------------------------------------
# Low memory intensity (MPKI < 1)
# ----------------------------------------------------------------------
_register(_w(
    "bzip2", "L", "SPEC CPU2006",
    "compression over buffers that mostly fit in the LLC",
    lambda seed: hotset_trace(6 * MIB, hot_bytes=2 * MIB, hot_fraction=0.95,
                              bubbles_mean=40.0, write_fraction=0.3,
                              seed=_seed("bzip2", seed)),
))
_register(_w(
    "gobmk", "L", "SPEC CPU2006",
    "game tree search in a small resident set",
    lambda seed: hotset_trace(3 * MIB, hot_bytes=1 * MIB, hot_fraction=0.97,
                              bubbles_mean=60.0, write_fraction=0.2,
                              seed=_seed("gobmk", seed)),
))
_register(_w(
    "hmmer", "L", "SPEC CPU2006",
    "profile HMM search: tiny streaming buffers",
    lambda seed: streaming_trace(2 * MIB, bubbles_mean=50.0,
                                 write_fraction=0.2, seed=_seed("hmmer", seed)),
))
_register(_w(
    "namd", "L", "SPEC CPU2006",
    "molecular dynamics: cache-resident particle lists",
    lambda seed: hotset_trace(4 * MIB, hot_bytes=2 * MIB, hot_fraction=0.96,
                              bubbles_mean=80.0, write_fraction=0.25,
                              seed=_seed("namd", seed)),
))
_register(_w(
    "povray", "L", "SPEC CPU2006",
    "ray tracing: compute bound, tiny memory traffic",
    lambda seed: hotset_trace(1 * MIB, hot_bytes=512 * KIB, hot_fraction=0.98,
                              bubbles_mean=100.0, write_fraction=0.1,
                              seed=_seed("povray", seed)),
))
_register(_w(
    "calculix", "L", "SPEC CPU2006",
    "FEM solver: small strided kernels",
    lambda seed: strided_trace(2 * MIB, stride_bytes=128, bubbles_mean=90.0,
                               write_fraction=0.2, seed=_seed("calculix", seed)),
))
_register(_w(
    "h264-enc", "L", "MediaBench",
    "video encode: motion search in a cache-resident window",
    lambda seed: hotset_trace(5 * MIB, hot_bytes=2 * MIB, hot_fraction=0.96,
                              bubbles_mean=70.0, write_fraction=0.3,
                              seed=_seed("h264-enc", seed)),
))


# ----------------------------------------------------------------------
# Additional suite members (rounding out the paper's 44 applications)
# ----------------------------------------------------------------------
_register(_w(
    "bwaves", "H", "SPEC CPU2006",
    "blast-wave solver: long strided sweeps over a huge grid",
    lambda seed: strided_trace(320 * MIB, stride_bytes=256, bubbles_mean=20.0,
                               write_fraction=0.25, seed=_seed("bwaves", seed)),
))
_register(_w(
    "zeusmp", "H", "SPEC CPU2006",
    "magnetohydrodynamics: several grid sweeps in flight",
    lambda seed: multistream_trace(128 * MIB, streams=8, bubbles_mean=24.0,
                                   write_fraction=0.3,
                                   seed=_seed("zeusmp", seed)),
))
_register(_w(
    "stream-copy", "H", "STREAM",
    "STREAM copy: one read stream feeding one write stream",
    lambda seed: multistream_trace(128 * MIB, streams=2, bubbles_mean=14.0,
                                   write_fraction=0.5,
                                   seed=_seed("stream-copy", seed)),
))
_register(_w(
    "stream-add", "H", "STREAM",
    "STREAM add: two read streams and one write stream",
    lambda seed: multistream_trace(144 * MIB, streams=3, bubbles_mean=15.0,
                                   write_fraction=0.33,
                                   seed=_seed("stream-add", seed)),
))
_register(_w(
    "wrf", "M", "SPEC CPU2006",
    "weather model: alternating stencil and physics phases",
    lambda seed: mixed_trace([
        (multistream_trace(64 * MIB, streams=6, bubbles_mean=120.0,
                           write_fraction=0.3, seed=_seed("wrf-a", seed)), 512),
        (strided_trace(32 * MIB, stride_bytes=192, bubbles_mean=120.0,
                       write_fraction=0.2, seed=_seed("wrf-b", seed)), 256),
    ]),
))
_register(_w(
    "xalancbmk", "M", "SPEC CPU2006",
    "XML transformation: many DOM regions walked in parallel",
    lambda seed: multistream_trace(48 * MIB, streams=20, bubbles_mean=140.0,
                                   write_fraction=0.25,
                                   seed=_seed("xalancbmk", seed)),
))
_register(_w(
    "mpeg2-enc", "M", "MediaBench",
    "MPEG-2 encode: streaming macroblocks with heavy writes",
    lambda seed: streaming_trace(16 * MIB, bubbles_mean=150.0,
                                 write_fraction=0.45,
                                 seed=_seed("mpeg2-enc", seed)),
))
_register(_w(
    "tpch17", "M", "TPC",
    "decision support Q17: scan joined with correlated subquery probes",
    lambda seed: mixed_trace([
        (multistream_trace(64 * MIB, streams=4, bubbles_mean=150.0,
                           write_fraction=0.05,
                           seed=_seed("tpch17-a", seed)), 512),
        (random_trace(48 * MIB, bubbles_mean=150.0, write_fraction=0.1,
                      seed=_seed("tpch17-b", seed)), 256),
    ]),
))
_register(_w(
    "sjeng", "L", "SPEC CPU2006",
    "chess search: transposition table mostly cache-resident",
    lambda seed: hotset_trace(2 * MIB, hot_bytes=1 * MIB, hot_fraction=0.97,
                              bubbles_mean=70.0, write_fraction=0.3,
                              seed=_seed("sjeng", seed)),
))
_register(_w(
    "perlbench", "L", "SPEC CPU2006",
    "interpreter: small heap with strong temporal reuse",
    lambda seed: hotset_trace(4 * MIB, hot_bytes=2 * MIB, hot_fraction=0.96,
                              bubbles_mean=65.0, write_fraction=0.35,
                              seed=_seed("perlbench", seed)),
))
_register(_w(
    "gromacs", "L", "SPEC CPU2006",
    "molecular dynamics: small strided neighbour lists",
    lambda seed: strided_trace(3 * MIB, stride_bytes=128, bubbles_mean=85.0,
                               write_fraction=0.2, seed=_seed("gromacs", seed)),
))
_register(_w(
    "dealII", "L", "SPEC CPU2006",
    "finite elements: cache-resident sparse structures",
    lambda seed: hotset_trace(5 * MIB, hot_bytes=2 * MIB, hot_fraction=0.95,
                              bubbles_mean=75.0, write_fraction=0.25,
                              seed=_seed("dealII", seed)),
))
_register(_w(
    "tonto", "L", "SPEC CPU2006",
    "quantum chemistry: tiny working set, compute bound",
    lambda seed: hotset_trace(1536 * KIB, hot_bytes=512 * KIB,
                              hot_fraction=0.97, bubbles_mean=90.0,
                              write_fraction=0.2, seed=_seed("tonto", seed)),
))
_register(_w(
    "gamess", "L", "SPEC CPU2006",
    "quantum chemistry: integrals in cache-resident buffers",
    lambda seed: hotset_trace(1 * MIB, hot_bytes=512 * KIB, hot_fraction=0.98,
                              bubbles_mean=110.0, write_fraction=0.15,
                              seed=_seed("gamess", seed)),
))
_register(_w(
    "mpeg2-dec", "L", "MediaBench",
    "MPEG-2 decode: small frames stream through the LLC",
    lambda seed: streaming_trace(3 * MIB, bubbles_mean=80.0,
                                 write_fraction=0.4,
                                 seed=_seed("mpeg2-dec", seed)),
))
_register(_w(
    "jpeg-dec", "L", "MediaBench",
    "JPEG decode: tiny tiles, compute dominated",
    lambda seed: streaming_trace(1 * MIB, bubbles_mean=120.0,
                                 write_fraction=0.3,
                                 seed=_seed("jpeg-dec", seed)),
))


def workload(name: str) -> Workload:
    """Look up a workload by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None


def workloads_by_class(cls: str) -> list[Workload]:
    """All workloads whose *expected* class is ``cls`` ('L', 'M' or 'H')."""
    if cls not in ("L", "M", "H"):
        raise ConfigError("class must be 'L', 'M' or 'H'")
    return [w for w in WORKLOADS.values() if w.expected_class == cls]
