"""Disk-cached experiment campaigns.

Figure-level studies re-run many (configuration, workload) pairs, and the
baseline runs repeat across figures. :class:`Campaign` memoizes
:func:`~repro.sim.sweep.run_workload` / :func:`~repro.sim.sweep.run_mix`
results on disk, keyed by a stable digest of the configuration, the
workload names, the seeds and the run lengths — so iterating on an
experiment script only pays for the runs whose inputs actually changed.

Every simulation in this package is deterministic given its inputs, which
is what makes result caching sound.

The keying helpers (:func:`config_digest`, :func:`task_digest`,
:func:`cache_filename`) are module-level and process-stable on purpose:
:mod:`repro.exec` reuses them so a parallel campaign addresses exactly the
same cache entries as a serial one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import socket
import time
from pathlib import Path

from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.sweep import run_mix, run_workload
from repro.errors import ConfigError
from repro.keying import jsonable

__all__ = [
    "Campaign",
    "config_digest",
    "task_digest",
    "cache_filename",
]

#: Bump when a change invalidates previously-cached results.
#: v2: identity-free projection rejects address-bearing ``repr`` fallbacks
#: and tags ``__dict__`` projections with the class name.
CACHE_VERSION = 2


def config_digest(config: SystemConfig) -> str:
    """Process-stable digest of a :class:`SystemConfig`.

    The inert ``engine`` field is excluded, so configs that name an
    engine and configs predating the field share one digest (cached
    campaign entries, warm images and snapshots stay valid).
    """
    projection = jsonable(config)
    projection.pop("engine", None)
    payload = {"version": CACHE_VERSION, "config": projection}
    encoded = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()[:20]


def task_digest(
    kind: str,
    names: tuple[str, ...],
    config: SystemConfig,
    instructions: int,
    warmup_instructions: int,
    seed: int,
) -> str:
    """Digest identifying one (kind, workloads, config, lengths, seed) run."""
    return hashlib.sha256(
        json.dumps(
            [kind, list(names), config_digest(config), instructions,
             warmup_instructions, seed],
            sort_keys=True,
        ).encode()
    ).hexdigest()[:24]


def cache_filename(
    kind: str,
    names: tuple[str, ...],
    config: SystemConfig,
    instructions: int,
    warmup_instructions: int,
    seed: int,
) -> str:
    """The cache file name a run of these inputs is stored under."""
    digest = task_digest(
        kind, names, config, instructions, warmup_instructions, seed
    )
    return f"{kind}-{'_'.join(names)[:48]}-{digest}.pkl"


class Campaign:
    """A directory-backed cache of simulation results."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(
        self,
        kind: str,
        names: tuple[str, ...],
        config: SystemConfig,
        instructions: int,
        warmup_instructions: int,
        seed: int,
    ) -> Path:
        """Cache file path for one run (shared with ParallelCampaign)."""
        return self.directory / cache_filename(
            kind, tuple(names), config, instructions, warmup_instructions,
            seed,
        )

    def load_cached(
        self, path: Path, expected: type = SimResult
    ) -> SimResult | None:
        """Return the cached result at ``path``, or ``None`` on a miss.

        Unreadable entries (torn writes from a killed process, stale
        pickles referencing renamed classes) and entries of the wrong
        type count as misses: the bad file is removed so the slot can be
        rewritten cleanly. ``expected`` is the result type the caller's
        task family produces (:class:`SimResult` for simulations; probe
        campaigns cache their own result type).
        """
        if not path.is_file():
            return None
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except Exception:
            path.unlink(missing_ok=True)
            return None
        if not isinstance(result, expected):
            path.unlink(missing_ok=True)
            return None
        return result

    def store(
        self, path: Path, result: SimResult, expected: type = SimResult
    ) -> None:
        """Atomically persist ``result`` at ``path``.

        The pickle is written to a process-unique sibling and moved into
        place with :func:`os.replace`, so a killed writer can never leave
        a torn file behind and concurrent writers of the same (identical,
        deterministic) result cannot interleave.
        """
        if not isinstance(result, expected):
            raise ConfigError(
                f"runner must produce a {expected.__name__}"
            )
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(result, handle)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _load_or_run(self, path: Path, runner) -> SimResult:
        cached = self.load_cached(path)
        if cached is not None:
            self.hits += 1
            return cached
        result = runner()
        self.store(path, result)
        self.misses += 1
        return result

    def run_workload(
        self,
        name: str,
        config: SystemConfig | None = None,
        instructions: int = 60_000,
        warmup_instructions: int = 30_000,
        seed: int = 0,
    ) -> SimResult:
        """Cached single-core run (same semantics as sweep.run_workload)."""
        config = config if config is not None else SystemConfig()
        path = self.path_for(
            "wl", (name,), config, instructions, warmup_instructions, seed
        )
        return self._load_or_run(
            path,
            lambda: run_workload(
                name,
                config,
                instructions=instructions,
                warmup_instructions=warmup_instructions,
                seed=seed,
            ),
        )

    def run_mix(
        self,
        names: list[str],
        config: SystemConfig | None = None,
        instructions: int = 40_000,
        warmup_instructions: int = 20_000,
        seed: int = 0,
    ) -> SimResult:
        """Cached multi-core mix run (same semantics as sweep.run_mix)."""
        config = config if config is not None else SystemConfig()
        path = self.path_for(
            "mix", tuple(names), config, instructions, warmup_instructions,
            seed,
        )
        return self._load_or_run(
            path,
            lambda: run_mix(
                names,
                config,
                instructions=instructions,
                warmup_instructions=warmup_instructions,
                seed=seed,
            ),
        )

    # -- single-flight claims -------------------------------------------

    @staticmethod
    def claim_path(path: Path) -> Path:
        """The advisory claim file guarding one cache entry."""
        return path.with_name(path.name + ".claim")

    def try_claim(self, path: Path, stale_s: float = 3600.0) -> bool:
        """Atomically claim the right to compute the entry at ``path``.

        Cache *writes* are already race-free (tmp + ``os.replace``), but
        two processes missing the same entry would both simulate it.
        The claim file is the advisory dedup: it is created with
        ``O_CREAT | O_EXCL`` (atomic on POSIX and network filesystems
        that matter here) and records who holds it. Returns ``True`` if
        this process now holds the claim and should run the task;
        ``False`` if a live foreign claim exists — the caller should
        wait for the result to appear instead of computing it.

        Stale claims — older than ``stale_s`` seconds, unreadable, or
        held by a dead process on this host — are broken and re-taken.
        """
        claim = self.claim_path(path)
        payload = json.dumps(
            {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "time": time.time(),
            },
            sort_keys=True,
        )
        for _ in range(2):  # second pass after breaking a stale claim
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self._claim_stale(claim, stale_s):
                    return False
                claim.unlink(missing_ok=True)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            return True
        return False

    def release_claim(self, path: Path) -> None:
        """Drop the claim on ``path`` (idempotent)."""
        self.claim_path(path).unlink(missing_ok=True)

    def claim_holder(self, path: Path) -> "dict | None":
        """The recorded holder of the claim on ``path``, if readable."""
        return self._read_claim(self.claim_path(path))

    @staticmethod
    def _read_claim(claim: Path) -> "dict | None":
        try:
            holder = json.loads(claim.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return holder if isinstance(holder, dict) else None

    def _claim_stale(self, claim: Path, stale_s: float) -> bool:
        try:
            age = time.time() - claim.stat().st_mtime
        except OSError:
            return False  # vanished: the holder released it already
        if age > stale_s:
            return True
        holder = self._read_claim(claim)
        if holder is None:
            # Torn or unreadable claim: break it only once it has had
            # ample time to finish being written.
            return age > 5.0
        if (
            holder.get("host") == socket.gethostname()
            and isinstance(holder.get("pid"), int)
        ):
            try:
                os.kill(holder["pid"], 0)
            except ProcessLookupError:
                return True  # same host, holder process is gone
            except PermissionError:
                pass  # alive but not ours
        return False

    def clear(self) -> int:
        """Delete every cached result; returns the number removed."""
        removed = 0
        for file in self.directory.glob("*.pkl"):
            file.unlink()
            removed += 1
        return removed
