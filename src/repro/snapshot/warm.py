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

An image file is a magic line followed by two uncompressed
pickles (protocol 5), streamed straight to and from the file: the
header, then the state (the warm kernel's arrays and the pickled trace
streams, see :func:`repro.sim.prewarm.warm_state`). Writes are atomic (process-unique
sibling plus :func:`os.replace`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError
from repro.keying import jsonable

__all__ = [
    "warmup_digest",
    "ForkGroup",
    "fork_groups",
    "write_warm_image",
    "read_warm_image",
]

#: Bump when the pre-warm algorithm or its config surface changes.
_WARM_VERSION = 1

#: First bytes of a warm image; the digit is the file layout version.
#: Version 3 stores the pickled trace streams (version 2 stored
#: ``(workload, seed, consumed)`` cursors); an image of another version
#: reads as missing and is rewritten.
_IMAGE_MAGIC = b"CROWWARM3\n"


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


def write_warm_image(path: "str | Path", header: dict, state: dict) -> None:
    """Atomically write the warm image ``header`` + ``state`` at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(_IMAGE_MAGIC)
            pickle.dump(header, handle, protocol=5)
            pickle.dump(state, handle, protocol=5)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_warm_image(path: "str | Path", header: dict) -> "dict | None":
    """The state stored at ``path`` for a system whose header is ``header``.

    ``None`` when there is no usable image: the file is missing, not a
    warm image, or torn (the caller then computes the state and
    rewrites the image). A readable image built for other inputs raises
    :class:`ConfigError` showing both headers.
    """
    try:
        with open(path, "rb") as handle:
            if handle.read(len(_IMAGE_MAGIC)) != _IMAGE_MAGIC:
                return None
            saved = pickle.load(handle)
            state = pickle.load(handle)
    except Exception:  # missing, or torn by an external writer
        return None
    if saved != header:
        raise ConfigError(
            f"warm image {path} was built for other inputs: image "
            f"{saved!r}, this system {header!r}"
        )
    return state
