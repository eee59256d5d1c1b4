"""Warm-state forking support.

A *warm image* is a snapshot of the functional (untimed) pre-warm state
— LLC contents, page table + frame-allocation RNG, and trace positions —
taken right after :meth:`repro.sim.system.System.prewarm` and before any
timed simulation. That state is **mechanism-invariant**: pre-warming
touches only address translation and the LLC, never the DRAM substrate,
so one image built under a shared configuration prefix can seed runs of
*every* mechanism variant. :meth:`repro.exec.parallel.ParallelCampaign.
run_forked` exploits this to pay the pre-warm cost once per sweep
instead of once per configuration.

:func:`warmup_digest` hashes exactly the configuration surface the
pre-warm state depends on. Two configs with equal warm digests produce
byte-identical pre-warm state for the same workloads and seeds (workload
identity is validated separately, by the trace streams themselves, when
an image is loaded).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.keying import jsonable

__all__ = ["warmup_digest", "build_warm_image", "ForkGroup", "fork_groups"]

#: Bump when the pre-warm algorithm or its config surface changes.
_WARM_VERSION = 1


def warmup_digest(config) -> str:
    """Digest of the config surface that shapes functional pre-warm state.

    Covers everything :meth:`System.prewarm` reads: core count, the
    allocation seed, the LLC configuration, and the geometry fields that
    determine addressable capacity (frame allocation). Mechanism choice,
    timing knobs and controller policy are deliberately excluded — they
    cannot influence untimed warm state, and excluding them is what makes
    one image forkable across mechanism variants.
    """
    geometry = config.resolved_geometry()
    payload = {
        "version": _WARM_VERSION,
        "cores": config.cores,
        "seed": config.seed,
        "llc": jsonable(config.llc_config()),
        "geometry": {
            "channels": geometry.channels,
            "ranks_per_channel": geometry.ranks_per_channel,
            "banks_per_rank": geometry.banks_per_rank,
            "rows_per_bank": geometry.rows_per_bank,
            "row_size_bytes": geometry.row_size_bytes,
            "line_size_bytes": geometry.line_size_bytes,
        },
    }
    encoded = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()[:20]


@dataclass(frozen=True)
class ForkGroup:
    """Specs that can fork from one shared warm image.

    ``name`` is the content-derived image file stem (callers append
    ``.warm`` and a directory), so one image serves every compatible
    spec.
    """

    name: str                  # image file stem (hash of the group key)
    warm_digest: str           # warmup_digest of the member configs
    indices: tuple[int, ...]   # positions of the members in the input
    prewarm_accesses: int

    @property
    def filename(self) -> str:
        return f"{self.name}.warm"


def fork_groups(specs, prewarm_accesses: int = 200_000) -> list[ForkGroup]:
    """Group task specs by warm-compatibility key.

    Two specs land in one group exactly when a single functional
    pre-warm can seed both: equal :func:`warmup_digest` (config surface)
    plus identical trace identity (kind, workload names, seed) and
    pre-warm length. Group naming is content-derived and process-stable,
    so independently computed groups agree on image file names.
    """
    keyed: "dict[str, tuple[str, list[int]]]" = {}
    order: list[str] = []
    for index, spec in enumerate(specs):
        warm_digest = warmup_digest(spec.config)
        key = json.dumps(
            [warm_digest, spec.kind, list(spec.names), spec.seed,
             prewarm_accesses],
            sort_keys=True,
        )
        if key not in keyed:
            keyed[key] = (warm_digest, [])
            order.append(key)
        keyed[key][1].append(index)
    groups = []
    for key in order:
        warm_digest, indices = keyed[key]
        name = hashlib.sha256(key.encode()).hexdigest()[:20]
        groups.append(ForkGroup(
            name, warm_digest, tuple(indices), prewarm_accesses
        ))
    return groups


def build_warm_image(
    path: "str | Path",
    names: "tuple[str, ...] | list[str]",
    config,
    seed: int = 0,
    kind: str = "wl",
    prewarm_accesses: int = 200_000,
) -> Path:
    """Build one warm image: construct, pre-warm, persist.

    ``kind``/``names``/``seed`` follow :class:`repro.exec.task.TaskSpec`
    semantics ('wl' = one single-core workload, 'mix' = one workload per
    core with hash-derived per-core seeds).
    """
    from dataclasses import replace

    from repro.errors import ConfigError
    from repro.sim.sweep import _stream, derive_trace_seed
    from repro.sim.system import System

    path = Path(path)
    if kind == "wl":
        if len(names) != 1:
            raise ConfigError("'wl' warm images take exactly one workload")
        config = replace(config, cores=1)
        streams = [_stream(names[0], seed)]
    elif kind == "mix":
        config = replace(config, cores=len(names))
        streams = [
            _stream(w, derive_trace_seed(seed, i))
            for i, w in enumerate(names)
        ]
    else:
        raise ConfigError(f"unknown warm-image kind {kind!r}")
    system = System(config, streams)
    system.prewarm(prewarm_accesses)
    system.save_warm_image(path, prewarm_accesses=prewarm_accesses)
    return path
