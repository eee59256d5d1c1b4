"""Per-plugin conformance invariants for the shadow checker.

A :class:`CheckerInvariant` is a small shadow state machine a mechanism
plugin attaches to the :class:`~repro.check.ProtocolChecker` of each
channel (via ``MechanismPlugin.checker_invariant``). It observes the
same issued command stream as the base checker, mirrors the mechanism's
*observable contract* independently of the mechanism's own code, and
flags deviations through the checker's violation plumbing — in strict
mode the first flag raises :class:`~repro.errors.ConformanceError`.

Invariants must be deterministic functions of the observed stream (the
checker can be snapshotted mid-run and restored in a fresh process, so
all their state must be picklable), and they must observe from cycle 0: the mechanism's policy state also evolves
from cycle 0, warm-up only resets *statistics*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.check.checker import ProtocolChecker
    from repro.dram.commands import Command

__all__ = ["CheckerInvariant"]


class CheckerInvariant:
    """Base invariant: observes commands, flags via the owning checker."""

    #: Constraint-name prefix for violations this invariant raises.
    name = "invariant"

    def on_command(
        self, checker: "ProtocolChecker", now: int, command: "Command"
    ) -> None:
        """Called for every issued command, after the base checks."""

    def finalize(self, checker: "ProtocolChecker", end_cycle: int) -> None:
        """End-of-run whole-window checks (e.g. coverage pro rata)."""

