"""Channel-component construction shared by System and ProbeSession.

:class:`~repro.sim.system.System` and the raw probing host in
:mod:`repro.probe` must build *identical* device-side stacks from one
:class:`~repro.sim.config.SystemConfig` — same resolved geometry, same
base and CROW timing parameters, same retention model, same mechanism
(whose boot-time work, e.g. CROW-ref weak-row remapping, defines the
device's power-on state), and the same shadow checker. These helpers
are that single construction path, factored out of ``System.__init__``
so the probe oracle (``tests/probe``) verifies the very device stack the
simulator runs.
"""

from __future__ import annotations

from repro.check import ProtocolChecker
from repro.controller.mechanism import Mechanism
from repro.circuit import derive_crow_timing_factors
from repro.dram import (
    CrowTimings,
    DramChannel,
    RetentionModel,
    TimingParameters,
)
from repro.dram.geometry import DramGeometry
from repro.mech import BuildContext, get_plugin
from repro.sim.config import SystemConfig

__all__ = [
    "base_timing",
    "build_crow_timings",
    "build_retention",
    "retention_model",
    "build_mechanism",
    "final_timing",
    "weak_row_set",
    "build_checker",
]


def base_timing(config: SystemConfig) -> TimingParameters:
    """The LPDDR4 timing set the config's density/refresh window implies."""
    return TimingParameters.lpddr4(
        density_gbit=config.density_gbit,
        refresh_window_ms=config.refresh_window_ms,
    )


def build_crow_timings(
    config: SystemConfig,
    geometry: DramGeometry,
    timing: TimingParameters,
) -> CrowTimings | None:
    """CROW activation timings, or ``None`` without copy rows."""
    if not geometry.copy_rows_per_subarray:
        return None
    factors = (
        derive_crow_timing_factors()
        if config.use_derived_circuit_factors
        else None
    )
    return CrowTimings.from_factors(timing, factors)


def build_retention(
    config: SystemConfig, geometry: DramGeometry
) -> RetentionModel | None:
    """The retention model the *mechanism* consumes (CROW-ref family)."""
    if not get_plugin(config.mechanism).needs_retention(config):
        return None
    return retention_model(config, geometry)


def retention_model(
    config: SystemConfig, geometry: DramGeometry
) -> RetentionModel:
    """The config's weak-row oracle, independent of mechanism choice.

    Cell physics does not depend on what the controller does about it:
    the probe session builds this unconditionally to model retention
    failures on any device, while :func:`build_retention` gates it to
    the mechanisms that actually remap weak rows.
    """
    return RetentionModel(
        geometry,
        target_interval_ms=config.target_refresh_window_ms,
        weak_rows_per_subarray=config.weak_rows_per_subarray,
        seed=config.seed,
    )


def build_mechanism(
    config: SystemConfig,
    geometry: DramGeometry,
    timing: TimingParameters,
    crow_timings: CrowTimings | None,
    retention: RetentionModel | None,
    channel: int,
) -> Mechanism:
    """The per-channel mechanism ``config`` describes (boot work included).

    Construction is delegated to the registered
    :class:`~repro.mech.MechanismPlugin` — this helper only assembles the
    :class:`~repro.mech.BuildContext` so both the simulator proper and
    the probe session hand plugins identical inputs.
    """
    return get_plugin(config.mechanism).build(
        BuildContext(
            config=config,
            geometry=geometry,
            timing=timing,
            crow_timings=crow_timings,
            retention=retention,
            channel=channel,
        )
    )


def final_timing(
    base: TimingParameters, mechanisms: "list[Mechanism]"
) -> TimingParameters:
    """Apply the refresh window the mechanisms achieved (CROW-ref)."""
    windows = [
        mech.achieved_refresh_window_ms
        for mech in mechanisms
        if hasattr(mech, "achieved_refresh_window_ms")
    ]
    if not windows:
        return base
    return base.with_refresh_window(min(windows))


def weak_row_set(
    retention: RetentionModel | None,
    geometry: DramGeometry,
    channel: int,
) -> set[tuple[int, int]]:
    """Retention-weak regular rows of one channel as ``(bank, row)``."""
    weak: set[tuple[int, int]] = set()
    if retention is None:
        return weak
    rows_per_subarray = geometry.rows_per_subarray
    for bank in range(geometry.banks_per_channel):
        for subarray in range(geometry.subarrays_per_bank):
            for index in retention.weak_regular_rows(channel, bank, subarray):
                weak.add((bank, subarray * rows_per_subarray + index))
    return weak


def build_checker(
    config: SystemConfig,
    device: DramChannel,
    mechanism: Mechanism,
    retention: RetentionModel | None,
    channel: int,
    mode: str,
) -> ProtocolChecker:
    """Build the shadow checker of one channel and attach it to ``device``.

    The checker mirrors the device's SALP layout and the config's
    refresh expectation, checks the weak rows of ``retention`` while the
    mechanism's extended refresh window is in effect, and carries the
    plugin's invariant. Boot-time weak-row remaps (CROW-ref / RowHammer)
    are seeded, so plain activations of the serving copy rows are legal.
    Each call builds a fresh invariant: invariants carry mutable shadow
    state, one checker each.
    """
    plugin = get_plugin(config.mechanism)
    geometry, timing = device.geometry, device.timing
    extended = timing.refresh_window_ms > config.refresh_window_ms
    invariant = plugin.checker_invariant(config, geometry, timing)
    checker = ProtocolChecker(
        geometry,
        timing,
        salp=device.salp,
        expect_refresh=(
            config.refresh_enabled and plugin.uses_controller_refresh(config)
        ),
        extended_refresh=extended,
        weak_rows=(
            weak_row_set(retention, geometry, channel) if extended else ()
        ),
        assume_ideal_duplicates=plugin.assume_ideal_duplicates(config),
        invariants=() if invariant is None else (invariant,),
        mode=mode,
    )
    components = (
        mechanism,
        getattr(mechanism, "ref", None),
        getattr(mechanism, "hammer", None),
    )
    for component in components:
        remap = getattr(component, "remap", None)
        if isinstance(remap, dict):
            for (bank, bank_row), copy in remap.items():
                checker.seed_remap(bank, bank_row, copy)
    device.attach(checker.observe)
    return checker
