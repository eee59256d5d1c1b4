"""Shared warm state: the warm digest, fork groups and warm images.

A *warm image* holds the functional (untimed) pre-warm state
:meth:`repro.sim.system.System.prewarm` leaves behind — LLC contents,
page table with the frame-allocation RNG, and trace positions. That
state is **mechanism-invariant**: pre-warming touches only address
translation and the LLC, never the DRAM substrate, so one image can
seed *every* mechanism variant of a configuration.
:meth:`repro.exec.parallel.ParallelCampaign.run` groups its cache misses
with :func:`fork_groups` and hands each group one image path: the first
member to warm writes it, the others adopt it.

:func:`warmup_digest` hashes exactly the configuration surface the
pre-warm state depends on. Two configs with equal warm digests produce
byte-identical pre-warm state for the same workloads, seeds and
pre-warm length, which is what an image's header records and what
adoption checks.

An image is a :mod:`repro.snapshot.container` file like every other
persistent artifact: its header records those inputs, its payload is
the state (the warm kernel's arrays and the pickled trace streams, see
:func:`repro.sim.prewarm.warm_state`), and an image written by other
code reads as missing and is rewritten.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.keying import jsonable

__all__ = [
    "warmup_digest",
    "ForkGroup",
    "fork_groups",
]


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
