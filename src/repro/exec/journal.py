"""JSONL run journal.

Every noteworthy event in a campaign — task launched, finished, failed,
retried, served from cache — is appended as one JSON object per line.
The format is append-only and durable per event — by default each record
is flushed *and fsynced*, so a journal survives not just a killed
campaign process but a host power loss, and tells you exactly how far
the run got; it is also the machine-readable record later tooling
(dashboards, flaky-task triage) consumes.

Two scale options relax the defaults for million-record campaigns, both
opt-in and both round-trippable through :func:`read_journal`:

* ``fsync_every=N`` batches the fsync to every Nth record (flushes still
  happen per record; a crash loses at most N-1 *fsynced* records, never
  tears the file);
* a path ending in ``.gz`` (e.g. ``run.jsonl.gz``) writes gzip-compressed
  records. Append re-opens produce concatenated gzip members, which
  :func:`read_journal` (and ``zcat``) decode transparently.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from pathlib import Path

__all__ = ["RunJournal", "read_journal"]


class RunJournal:
    """Append-only JSONL event log for one campaign run.

    Usable both as an engine observer (it exposes the ``(event, fields)``
    callable protocol the runner emits to) and directly via
    :meth:`record`. Event payloads must be JSON-serializable.

    :param fsync: fsync records (the default). Campaign events are rare
        relative to simulation work, so the per-record fsync is noise in
        the profile but makes each line durable the moment
        :meth:`record` returns; pass ``False`` for throwaway journals.
    :param fsync_every: fsync cadence in records (default 1 = every
        record). Larger values amortize the syscall over huge campaigns;
        :meth:`close` always syncs whatever is outstanding. Ignored when
        ``fsync`` is ``False``.
    :param compress: gzip-compress the stream. ``None`` (default) infers
        from the path suffix — ``.gz`` enables compression.
    """

    def __init__(
        self,
        path: "str | Path",
        fsync: bool = True,
        fsync_every: int = 1,
        compress: "bool | None" = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if compress is None:
            compress = self.path.suffix == ".gz"
        self.compressed = compress
        if compress:
            self._handle = gzip.open(self.path, "at", encoding="utf-8")
        else:
            self._handle = self.path.open("a", encoding="utf-8")
        self._fsync = fsync
        self._fsync_every = max(1, fsync_every)
        self._unsynced = 0
        self._origin = time.monotonic()

    def record(self, event: str, **fields) -> None:
        """Append one event line; durable on disk per the fsync cadence."""
        entry = {
            "event": event,
            "t": round(time.monotonic() - self._origin, 6),
            **fields,
        }
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        if not self._fsync:
            return
        self._unsynced += 1
        if self._unsynced >= self._fsync_every:
            self._sync()

    def _sync(self) -> None:
        os.fsync(self._handle.fileno())
        self._unsynced = 0

    def __call__(self, event: str, fields: dict) -> None:
        self.record(event, **fields)

    def close(self) -> None:
        if not self._handle.closed:
            if self._fsync and self._unsynced:
                self._handle.flush()
                self._sync()
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: "str | Path") -> list[dict]:
    """Parse a journal back into its event dicts (skipping torn lines).

    Handles both plain and gzip journals; compression is sniffed from
    the file's magic bytes, not its name, so renamed files still parse.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError):
            # Torn final gzip member from a killed writer: decode what
            # streams cleanly, line by line.
            raw = _decompress_prefix(raw)
    text = raw.decode("utf-8", errors="replace")
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn final line from a killed writer
    return events


def _decompress_prefix(raw: bytes) -> bytes:
    """Best-effort decode of a gzip stream with a corrupt/torn tail.

    Walks the concatenated members one decompressobj at a time —
    ``GzipFile.read`` would discard an entire call's buffered output
    when the torn tail raises mid-read, losing intact members.
    """
    import zlib

    out = bytearray()
    view = raw
    while view[:2] == b"\x1f\x8b":
        member = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
        try:
            out.extend(member.decompress(view))
        except zlib.error:
            break  # corrupt member: keep everything before it
        if not member.eof:
            break  # torn final member: its clean prefix is kept
        view = member.unused_data
    return bytes(out)
