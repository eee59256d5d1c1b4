"""Versioned, digest-stamped snapshot container format.

A snapshot file is a small self-describing binary container:

.. code-block:: text

    offset  size  field
    0       8     magic  b"CROWSNAP"
    8       4     format version (u32, big-endian)
    12      4     header length H (u32, big-endian)
    16      H     header — UTF-8 JSON, sorted keys
    16+H    8     payload length P (u64, big-endian)
    24+H    P     payload — zlib-compressed pickle
    24+H+P  32    SHA-256 over everything before the trailer

The header carries cheap-to-read metadata (snapshot kind, configuration
digest, cycle, mechanism — everything ``python -m repro snapshot
inspect`` prints) and is readable without touching the payload.  The
payload is a pickle of live objects — for a full snapshot the
:class:`~repro.sim.system.System` itself — so it has no schema of its
own; unpickling is safe here because snapshots are local artifacts the
same codebase wrote (the digest trailer rejects torn or tampered files
before unpickling).

Writes are atomic: the container is assembled in a process-unique
sibling file and moved into place with :func:`os.replace`, so a killed
writer can never leave a torn snapshot behind — which is exactly the
property resumable campaigns rely on.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import zlib
from pathlib import Path

from repro.errors import SnapshotError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "write_snapshot",
    "read_header",
    "read_snapshot",
]

MAGIC = b"CROWSNAP"

#: Bump on any incompatible change to the container layout or to what
#: the payload holds. v1 payloads were hand-written component state
#: dicts; v2 payloads pickle the live objects, with each trace stream
#: reduced to ``(workload, seed, consumed)`` and replayed on load; v3
#: pickles the trace streams' producers as they stand. Old snapshots
#: are rejected with a structured :class:`SnapshotError`, never misread.
FORMAT_VERSION = 3

_DIGEST_SIZE = 32


def write_snapshot(path: "str | Path", header: dict, payload: object) -> None:
    """Atomically write one snapshot container.

    ``header`` must be JSON-serializable; the ``format_version`` key is
    stamped in here and must not be supplied by the caller. ``payload``
    is an arbitrary picklable object; one that cannot be pickled raises
    :class:`SnapshotError` naming ``path`` and the offending type, and
    nothing is written.
    """
    if "format_version" in header:
        raise SnapshotError("header key 'format_version' is reserved")
    path = Path(path)
    stamped = dict(header)
    stamped["format_version"] = FORMAT_VERSION
    header_bytes = json.dumps(stamped, sort_keys=True).encode("utf-8")
    try:
        pickled = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SnapshotError(
            f"{path}: cannot pickle the payload: {exc}"
        ) from exc
    payload_bytes = zlib.compress(pickled, 6)
    buffer = io.BytesIO()
    buffer.write(MAGIC)
    buffer.write(struct.pack(">I", FORMAT_VERSION))
    buffer.write(struct.pack(">I", len(header_bytes)))
    buffer.write(header_bytes)
    buffer.write(struct.pack(">Q", len(payload_bytes)))
    buffer.write(payload_bytes)
    body = buffer.getvalue()
    blob = body + hashlib.sha256(body).digest()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_exact(handle, n: int, what: str) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise SnapshotError(f"truncated snapshot: short read in {what}")
    return data


def _parse_preamble(handle, path: Path) -> dict:
    """Validate magic + version and return the parsed header."""
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file (bad magic)")
    (version,) = struct.unpack(">I", _read_exact(handle, 4, "version"))
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot format v{version} is not supported "
            f"(this build reads v{FORMAT_VERSION})"
        )
    (header_len,) = struct.unpack(
        ">I", _read_exact(handle, 4, "header length")
    )
    header_bytes = _read_exact(handle, header_len, "header")
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header") from exc
    if not isinstance(header, dict):
        raise SnapshotError(f"{path}: snapshot header is not an object")
    return header


def read_header(path: "str | Path") -> dict:
    """Parse only the (cheap) header of a snapshot file."""
    path = Path(path)
    if not path.is_file():
        raise SnapshotError(f"{path}: no such snapshot")
    with path.open("rb") as handle:
        return _parse_preamble(handle, path)


def read_snapshot(path: "str | Path") -> "tuple[dict, object]":
    """Read and verify one container; returns ``(header, payload)``.

    The SHA-256 trailer is checked over the whole body *before* the
    payload is unpickled, so a torn or tampered file fails closed.
    """
    path = Path(path)
    if not path.is_file():
        raise SnapshotError(f"{path}: no such snapshot")
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 8 + 8 + _DIGEST_SIZE:
        raise SnapshotError(f"{path}: truncated snapshot")
    body, trailer = blob[:-_DIGEST_SIZE], blob[-_DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != trailer:
        raise SnapshotError(f"{path}: snapshot digest mismatch (corrupt)")
    handle = io.BytesIO(body)
    header = _parse_preamble(handle, path)
    (payload_len,) = struct.unpack(
        ">Q", _read_exact(handle, 8, "payload length")
    )
    payload_bytes = _read_exact(handle, payload_len, "payload")
    if handle.read(1):
        raise SnapshotError(f"{path}: trailing bytes after payload")
    try:
        payload = pickle.loads(zlib.decompress(payload_bytes))
    except Exception as exc:
        raise SnapshotError(f"{path}: corrupt snapshot payload") from exc
    return header, payload
