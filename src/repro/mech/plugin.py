"""The mechanism plugin interface.

A plugin is a small stateless object describing one mechanism *name*:
how to build the per-channel :class:`~repro.controller.mechanism.Mechanism`
hook, what the name does to the DRAM geometry, whether the controller
runs the REF loop, and which conformance invariants the shadow checker
should enforce on top of the JEDEC/CROW rules. The plugin itself holds
no run state — everything mutable lives on the ``Mechanism`` instances
it builds (one per channel), which are pickled with the system. The
activation timings a mechanism issues are declared by those instances
(:meth:`~repro.controller.mechanism.Mechanism.timing_variants`), so no
plugin hook re-derives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.check.invariants import CheckerInvariant
    from repro.controller.controller import ControllerConfig
    from repro.controller.mechanism import Mechanism
    from repro.dram import CrowTimings, RetentionModel, TimingParameters
    from repro.dram.geometry import DramGeometry
    from repro.sim.config import SystemConfig

__all__ = ["BuildContext", "MechanismPlugin"]


@dataclass(frozen=True)
class BuildContext:
    """Everything :meth:`MechanismPlugin.build` may consume.

    Assembled by :mod:`repro.sim.factory` from one
    :class:`~repro.sim.config.SystemConfig`; identical for the simulator
    proper and the probe session, so a plugin cannot make the two drift.
    """

    config: "SystemConfig"
    geometry: "DramGeometry"
    timing: "TimingParameters"
    crow_timings: "CrowTimings | None"
    retention: "RetentionModel | None"
    channel: int


class MechanismPlugin:
    """One registered mechanism: construction + system-wiring hooks.

    Subclasses override :meth:`build` (mandatory) and whichever wiring
    hooks differ from conventional DRAM. Defaults reproduce the
    baseline: copy rows provisioned per config, controller-driven REF,
    no SALP row buffers, no extra checker invariants.
    """

    #: Registry name; assigned by :func:`repro.mech.register_mechanism`.
    name: str = ""

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, ctx: BuildContext) -> "Mechanism":
        """The per-channel mechanism instance (boot-time work included)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def geometry_overrides(self, config: "SystemConfig") -> dict:
        """Geometry field overrides this mechanism requires.

        The default provisions ``config.copy_rows`` copy rows per
        subarray (the CROW substrate); mechanisms on conventional arrays
        return ``{"copy_rows_per_subarray": 0}``.
        """
        return {"copy_rows_per_subarray": config.copy_rows}

    def salp_subarrays(
        self, config: "SystemConfig", geometry: "DramGeometry"
    ) -> int | None:
        """Per-subarray row buffers to model, or ``None`` (one per bank)."""
        return None

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------
    def needs_retention(self, config: "SystemConfig") -> bool:
        """Whether :meth:`build` consumes a retention model (CROW-ref)."""
        return False

    def uses_controller_refresh(self, config: "SystemConfig") -> bool:
        """Whether the controller runs the periodic all-bank REF loop.

        Returning ``False`` disables REF *and* the checker's refresh
        cadence/coverage rules: the mechanism either needs no refresh
        (ideal bounds) or provides it itself (HiRA), in which case its
        :meth:`checker_invariant` should enforce the replacement policy.
        """
        return True

    def controller_config(
        self, config: "SystemConfig", controller_config: "ControllerConfig"
    ) -> "ControllerConfig":
        """Adjust the controller policy (e.g. SALP's open-page rows)."""
        return controller_config

    # ------------------------------------------------------------------
    # Conformance
    # ------------------------------------------------------------------
    def assume_ideal_duplicates(self, config: "SystemConfig") -> bool:
        """Relax the checker's CROW duplicate rule (ideal bounds only)."""
        return False

    def checker_invariant(
        self,
        config: "SystemConfig",
        geometry: "DramGeometry",
        timing: "TimingParameters",
    ) -> "CheckerInvariant | None":
        """A per-plugin invariant for the shadow checker, or ``None``."""
        return None
