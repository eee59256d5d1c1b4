"""JSONL run journal.

Every noteworthy event in a campaign — task launched, finished, failed,
retried, served from cache — is appended as one JSON object per line.
The format is append-only and durable per event — each record is
flushed *and fsynced*, so a journal survives not just a killed campaign
process but a host power loss, and tells you exactly how far the run
got; it is also the machine-readable record later tooling (dashboards,
flaky-task triage) consumes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

__all__ = ["RunJournal", "read_journal"]


class RunJournal:
    """Append-only JSONL event log for one campaign run.

    Usable both as an engine observer (it exposes the ``(event, fields)``
    callable protocol the runner emits to) and directly via
    :meth:`record`. Event payloads must be JSON-serializable. Campaign
    events are rare relative to simulation work, so the per-record fsync
    is noise in the profile but makes each line durable the moment
    :meth:`record` returns.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self._origin = time.monotonic()

    def record(self, event: str, **fields) -> None:
        """Append one event line, durable on disk when this returns."""
        entry = {
            "event": event,
            "t": round(time.monotonic() - self._origin, 6),
            **fields,
        }
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def __call__(self, event: str, fields: dict) -> None:
        self.record(event, **fields)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: "str | Path") -> list[dict]:
    """Parse a journal back into its event dicts (skipping torn lines)."""
    text = Path(path).read_bytes().decode("utf-8", errors="replace")
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
