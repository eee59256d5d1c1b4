"""Task specifications for the execution engine.

A :class:`TaskSpec` is the unit of work the engine schedules: one
deterministic simulation — a single-core workload run or a
multiprogrammed mix — fully described by value. Specs are frozen,
picklable (they cross process boundaries) and content-addressed: two
specs with equal fields share one :meth:`~TaskSpec.digest` in every
process, which is what lets the runner, the journal and the disk cache
all agree on task identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError, ReproError
from repro.sim.campaign import cache_filename, task_digest
from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.sweep import run_mix, run_workload

__all__ = ["TaskSpec", "execute_task"]

#: Task kinds, matching the Campaign cache-key prefixes.
KINDS = ("wl", "mix")


@dataclass(frozen=True)
class TaskSpec:
    """One deterministic simulation, described entirely by value."""

    kind: str                      # 'wl' (single-core) or 'mix'
    names: tuple[str, ...]         # workload name(s); one per core for 'mix'
    config: SystemConfig = field(default_factory=SystemConfig)
    instructions: int = 60_000
    warmup_instructions: int = 30_000
    seed: int = 0
    # Snapshot plumbing. Deliberately excluded from digest()/the cache
    # key: a run that adopts shared warm state (System's warm_image) or
    # resumes a checkpoint produces the same SimResult bytes as a cold
    # run of the same simulation inputs, so these fields change *how* a
    # task executes, never *what* it is.
    warm_image: "str | None" = None
    checkpoint_dir: "str | None" = None
    checkpoint_every: int = 50_000

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown task kind {self.kind!r}; one of {KINDS}"
            )
        if not self.names:
            raise ConfigError("a task needs at least one workload name")
        if self.kind == "wl" and len(self.names) != 1:
            raise ConfigError("'wl' tasks take exactly one workload name")
        # System.run's rule, applied here so a campaign rejects a spec
        # that can never succeed before any worker starts.
        if self.instructions < 1 or self.warmup_instructions < 0:
            raise ConfigError("invalid instruction counts")
        object.__setattr__(self, "names", tuple(self.names))
        # Paths must be plain strings: specs are pickled across process
        # boundaries and compared by value.
        if self.warm_image is not None:
            object.__setattr__(self, "warm_image", str(self.warm_image))
        if self.checkpoint_dir is not None:
            object.__setattr__(
                self, "checkpoint_dir", str(self.checkpoint_dir)
            )
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")

    # -- constructors ---------------------------------------------------

    @classmethod
    def workload(
        cls,
        name: str,
        config: SystemConfig | None = None,
        instructions: int = 60_000,
        warmup_instructions: int = 30_000,
        seed: int = 0,
        **snapshot_kwargs,
    ) -> "TaskSpec":
        """A single-core run (same semantics as sweep.run_workload)."""
        return cls(
            kind="wl",
            names=(name,),
            config=config if config is not None else SystemConfig(),
            instructions=instructions,
            warmup_instructions=warmup_instructions,
            seed=seed,
            **snapshot_kwargs,
        )

    @classmethod
    def mix(
        cls,
        names: "list[str] | tuple[str, ...]",
        config: SystemConfig | None = None,
        instructions: int = 40_000,
        warmup_instructions: int = 20_000,
        seed: int = 0,
        **snapshot_kwargs,
    ) -> "TaskSpec":
        """A multiprogrammed run (same semantics as sweep.run_mix)."""
        return cls(
            kind="mix",
            names=tuple(names),
            config=config if config is not None else SystemConfig(),
            instructions=instructions,
            warmup_instructions=warmup_instructions,
            seed=seed,
            **snapshot_kwargs,
        )

    # -- identity -------------------------------------------------------

    def digest(self) -> str:
        """Process-stable content digest (the Campaign cache key)."""
        return task_digest(
            self.kind, self.names, self.config, self.instructions,
            self.warmup_instructions, self.seed,
        )

    @property
    def label(self) -> str:
        """Short human-readable identity for logs and progress lines."""
        names = "+".join(self.names)
        return f"{self.kind}:{names}@{self.config.mechanism}#{self.seed}"

    def cache_filename(self) -> str:
        """The Campaign cache file name this task's result lives under."""
        return cache_filename(
            self.kind, self.names, self.config, self.instructions,
            self.warmup_instructions, self.seed,
        )

    def checkpoint_path(self) -> "Path | None":
        """Where this task's periodic checkpoint lives (digest-named)."""
        if self.checkpoint_dir is None:
            return None
        return Path(self.checkpoint_dir) / f"{self.digest()}.ckpt"

    # -- execution ------------------------------------------------------

    def run(self) -> SimResult:
        """Execute the simulation this spec describes (deterministic).

        With a ``checkpoint_dir``, a checkpoint left behind by an earlier
        killed attempt is resumed instead of restarting from cycle 0;
        unreadable or incompatible checkpoints are discarded and the run
        starts over. Either way the result is byte-identical to an
        uninterrupted run.
        """
        checkpoint = self.checkpoint_path()
        if checkpoint is not None and checkpoint.is_file():
            from repro.sim.system import System

            try:
                # Resume at *this spec's* cadence so the continued run
                # keeps checkpointing (a second kill also resumes) and
                # removes the file once it completes.
                return System.resume(
                    checkpoint, checkpoint_every=self.checkpoint_every
                )
            except ReproError:
                checkpoint.unlink(missing_ok=True)
        kwargs: dict = {
            "config": self.config,
            "instructions": self.instructions,
            "warmup_instructions": self.warmup_instructions,
            "seed": self.seed,
            "warm_image": self.warm_image,
        }
        if checkpoint is not None:
            kwargs["checkpoint_path"] = checkpoint
            kwargs["checkpoint_every"] = self.checkpoint_every
        if self.kind == "wl":
            return run_workload(self.names[0], **kwargs)
        return run_mix(list(self.names), **kwargs)


def execute_task(spec: TaskSpec) -> SimResult:
    """Module-level task entry point (picklable for worker processes)."""
    return spec.run()
