"""The one container format of every persistent artifact.

Campaign result-cache entries, warm images and snapshots/checkpoints
are all written by :func:`write_snapshot` and read by
:func:`read_snapshot`:

.. code-block:: text

    offset  size  field
    0       8     magic  b"CROWSNAP"
    8       4     format version (u32, big-endian)
    12      4     header length H (u32, big-endian)
    16      H     header — UTF-8 JSON, sorted keys
    16+H    P     payload — pickle (highest protocol), up to the trailer
    16+H+P  32    SHA-256 over everything before the trailer

The header carries cheap-to-read metadata (artifact kind, the
``code_fingerprint`` of the code that wrote the file and, for a
snapshot, configuration digest, cycle and mechanism — everything
``python -m repro snapshot inspect`` prints). The payload is a pickle
of live objects, so only the code that wrote it can be trusted to read
it: a read refuses a file stamped with another
:func:`~repro.keying.code_fingerprint`, or whose trailer does not match
(torn or tampered), before anything is unpickled.

Both directions stream, holding no copy of the payload in memory: a
write pickles through a hashing writer into the process-unique sibling
``<path>.<pid>.tmp`` and moves it into place with :func:`os.replace`
(so a killed writer never leaves a torn file), and a read hashes the
file in chunks, then unpickles from the open handle.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from pathlib import Path

from repro.errors import SnapshotError
from repro.keying import code_fingerprint

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "write_snapshot",
    "read_header",
    "read_snapshot",
    "verify_snapshot",
]

MAGIC = b"CROWSNAP"

#: Bump on any incompatible change to the container layout; which code
#: wrote the payload is the header's ``code_fingerprint``. v4 stores the
#: pickle uncompressed, running up to the trailer.
FORMAT_VERSION = 4

_DIGEST_SIZE = 32
_CHUNK = 1 << 20


class _HashingWriter:
    """A file wrapper that feeds every byte written to a SHA-256."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self.handle.write(data)


def write_snapshot(path: "str | Path", header: dict, payload: object) -> None:
    """Atomically write one container.

    ``header`` must be JSON-serializable; the ``format_version`` and
    ``code_fingerprint`` keys are stamped in here and must not be
    supplied by the caller. ``payload`` is an arbitrary picklable
    object; one that cannot be pickled raises :class:`SnapshotError`
    naming ``path`` and the offending type, and nothing is written.
    """
    for key in ("format_version", "code_fingerprint"):
        if key in header:
            raise SnapshotError(f"header key {key!r} is reserved")
    path = Path(path)
    stamped = dict(
        header, format_version=FORMAT_VERSION,
        code_fingerprint=code_fingerprint(),
    )
    header_bytes = json.dumps(stamped, sort_keys=True).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            writer = _HashingWriter(handle)
            writer.write(MAGIC)
            writer.write(struct.pack(">II", FORMAT_VERSION, len(header_bytes)))
            writer.write(header_bytes)
            try:
                pickle.dump(payload, writer, protocol=pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                raise SnapshotError(
                    f"{path}: cannot pickle the payload: {exc}"
                ) from exc
            handle.write(writer.digest.digest())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _open(path: "str | Path"):
    if not Path(path).is_file():
        raise SnapshotError(f"{path}: no such snapshot")
    return open(path, "rb")


def _parse_preamble(handle, path) -> dict:
    """Validate magic + version and return the parsed header."""
    preamble = handle.read(len(MAGIC) + 8)
    if preamble[:len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file (bad magic)")
    if len(preamble) < len(MAGIC) + 8:
        raise SnapshotError(f"{path}: truncated snapshot")
    version, header_len = struct.unpack(">II", preamble[len(MAGIC):])
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot format v{version} is not supported "
            f"(this build reads v{FORMAT_VERSION})"
        )
    try:
        header = json.loads(handle.read(header_len))
    except ValueError as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header") from exc
    if not isinstance(header, dict):
        raise SnapshotError(f"{path}: snapshot header is not an object")
    return header


def _verify(handle, path) -> "tuple[dict, int]":
    """Check the code fingerprint, then the trailer; returns the header
    and the payload's end offset, with ``handle`` at its start."""
    header = _parse_preamble(handle, path)
    if header.get("code_fingerprint") != code_fingerprint():
        raise SnapshotError(
            f"{path}: written by code {header.get('code_fingerprint')}, "
            f"this code is {code_fingerprint()}"
        )
    start = handle.tell()
    end = handle.seek(0, os.SEEK_END) - _DIGEST_SIZE
    if end < start:
        raise SnapshotError(f"{path}: truncated snapshot")
    handle.seek(0)
    digest = hashlib.sha256()
    while handle.tell() < end:
        chunk = handle.read(min(_CHUNK, end - handle.tell()))
        if not chunk:
            raise SnapshotError(f"{path}: truncated snapshot")
        digest.update(chunk)
    if digest.digest() != handle.read(_DIGEST_SIZE):
        raise SnapshotError(f"{path}: snapshot digest mismatch (corrupt)")
    handle.seek(start)
    return header, end


def read_header(path: "str | Path") -> dict:
    """Parse only the (cheap) header of a container, unverified."""
    with _open(path) as handle:
        return _parse_preamble(handle, path)


def verify_snapshot(path: "str | Path") -> dict:
    """Check a container's code fingerprint and trailer without
    unpickling it; returns its header."""
    with _open(path) as handle:
        return _verify(handle, path)[0]


def read_snapshot(path: "str | Path") -> "tuple[dict, object]":
    """Read and verify one container; returns ``(header, payload)``.

    The code fingerprint and the SHA-256 trailer are both checked
    *before* the payload is unpickled, so a file written by other code,
    or a torn or tampered one, fails closed with :class:`SnapshotError`.
    """
    with _open(path) as handle:
        header, end = _verify(handle, path)
        try:
            payload = pickle.load(handle)
        except Exception as exc:
            raise SnapshotError(f"{path}: corrupt snapshot payload") from exc
        if handle.tell() != end:
            raise SnapshotError(f"{path}: trailing bytes after payload")
    return header, payload
