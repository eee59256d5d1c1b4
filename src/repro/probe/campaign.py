"""Probe campaigns: content-digested tasks over the exec engine.

A :class:`ProbeSpec` is a :class:`~repro.exec.task.TaskSpec` whose
``run()`` performs structure inference instead of a simulation, so probe
campaigns ride the whole execution stack unchanged: the
:class:`~repro.exec.parallel.ParallelCampaign` disk cache and the run
journal (the content digest folds in the probe-only fields, so a probe
of channel 1 or a shadow-less probe can never alias a different
campaign's cache entry).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigError
from repro.exec.task import TaskSpec
from repro.probe.infer import InferredProfile, VerifyReport
from repro.sim.campaign import task_digest
from repro.sim.config import SystemConfig

__all__ = ["ProbeSpec", "ProbeResult", "execute_probe"]


@dataclass(frozen=True)
class ProbeResult:
    """What one probe task produced.

    Carries the inferred profile, the optional verification report, and
    the session's command-budget telemetry export — the same
    ``telemetry``/``telemetry_digest()`` surface as
    :class:`~repro.sim.metrics.SimResult`, which is what the journal's
    ``task_telemetry`` events key on.
    """

    profile: InferredProfile
    report: "VerifyReport | None" = None
    telemetry: "dict | None" = None

    def telemetry_digest(self) -> "str | None":
        if self.telemetry is None:
            return None
        from repro.telemetry import export_digest

        return export_digest(self.telemetry)

    @property
    def ok(self) -> bool:
        """Whether verification passed (vacuously true when skipped)."""
        return self.report is None or self.report.ok

    def to_dict(self) -> dict:
        return {
            "profile": self.profile.to_dict(),
            "report": self.report.to_dict() if self.report else None,
            "telemetry_digest": self.telemetry_digest(),
        }


@dataclass(frozen=True)
class ProbeSpec(TaskSpec):
    """One deterministic structure-inference run, described by value."""

    VALID_KINDS: ClassVar[tuple[str, ...]] = ("probe",)
    result_type: ClassVar[type] = ProbeResult

    channel: int = 0
    shadow: bool = True
    probe_banks: "tuple[int, ...] | None" = None
    retention_interval_ms: "float | None" = None
    verify: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.probe_banks is not None:
            object.__setattr__(
                self, "probe_banks", tuple(self.probe_banks)
            )
        if self.channel < 0:
            raise ConfigError("channel must be non-negative")

    @classmethod
    def device(
        cls,
        config: "SystemConfig | None" = None,
        channel: int = 0,
        shadow: bool = True,
        probe_banks: "tuple[int, ...] | None" = None,
        retention_interval_ms: "float | None" = None,
        verify: bool = True,
    ) -> "ProbeSpec":
        """A probe of one channel of the device ``config`` describes."""
        return cls(
            kind="probe",
            names=("device",),
            config=config if config is not None else SystemConfig(),
            instructions=0,
            warmup_instructions=0,
            seed=config.seed if config is not None else 0,
            channel=channel,
            shadow=shadow,
            probe_banks=probe_banks,
            retention_interval_ms=retention_interval_ms,
            verify=verify,
        )

    # -- identity -------------------------------------------------------

    def digest(self) -> str:
        """Content digest folding in the probe-only identity fields."""
        base = task_digest(
            self.kind, self.names, self.config, self.instructions,
            self.warmup_instructions, self.seed,
        )
        extras = json.dumps(
            {
                "channel": self.channel,
                "shadow": self.shadow,
                "probe_banks": (
                    list(self.probe_banks)
                    if self.probe_banks is not None
                    else None
                ),
                "retention_interval_ms": self.retention_interval_ms,
                "verify": self.verify,
            },
            sort_keys=True,
        )
        return hashlib.sha256(
            f"{base}|{extras}".encode()
        ).hexdigest()[:24]

    def cache_filename(self) -> str:
        return (
            f"{self.kind}-{self.config.mechanism}-ch{self.channel}"
            f"-{self.digest()}.pkl"
        )

    # -- execution ------------------------------------------------------

    def run(self) -> ProbeResult:
        """Probe the device and (optionally) verify the inference."""
        from repro.probe.routines import discover
        from repro.probe.session import ProbeSession

        session = ProbeSession(
            self.config, channel=self.channel, shadow=self.shadow
        )
        profile = discover(
            session,
            probe_banks=(
                list(self.probe_banks)
                if self.probe_banks is not None
                else None
            ),
            retention_interval_ms=self.retention_interval_ms,
        )
        report = (
            profile.verify_against(self.config) if self.verify else None
        )
        return ProbeResult(
            profile=profile,
            report=report,
            telemetry=session.stats.export(),
        )


def execute_probe(spec: ProbeSpec) -> ProbeResult:
    """Module-level probe entry point (picklable for worker processes)."""
    return spec.run()
