"""Builtin plugins: the CROW family and the paper's baselines.

Each plugin builds its mechanism from the config and says what the name
does to the DRAM geometry and the controller's refresh loop. The
activation timings a mechanism issues are declared by the mechanism
itself (``Mechanism.timing_variants``), not here. The committed
telemetry-digest oracle (``tests/data/expected_digests.json``) pins the
behaviour of every name.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines import ChargeCache, IdealCrowCache, SalpMasa, TlDram
from repro.controller.mechanism import NoMechanism
from repro.core import CrowCache, CrowCacheRef, CrowRef, RowHammerMitigation
from repro.mech.plugin import BuildContext, MechanismPlugin
from repro.mech.registry import register_mechanism

__all__: list[str] = []


@register_mechanism("baseline")
class BaselinePlugin(MechanismPlugin):
    """Conventional DRAM (the paper's baseline)."""

    def build(self, ctx: BuildContext):
        return NoMechanism(ctx.geometry, ctx.timing)

    def geometry_overrides(self, config) -> dict:
        return {"copy_rows_per_subarray": 0}


@register_mechanism("crow-cache")
class CrowCachePlugin(MechanismPlugin):
    """CROW in-DRAM cache (paper Section 4.1)."""

    def build(self, ctx: BuildContext):
        from repro.core.table import CrowTable

        config = ctx.config
        table = CrowTable(ctx.geometry, config.subarray_group_size)
        return CrowCache(
            ctx.geometry,
            ctx.timing,
            crow=ctx.crow_timings,
            table=table,
            allow_partial_restore=config.allow_partial_restore,
            reduced_twr=config.reduced_twr,
            act_c_early_termination=config.act_c_early_termination,
            evict_partial=config.evict_partial,
        )


@register_mechanism("crow-ref")
class CrowRefPlugin(MechanismPlugin):
    """CROW weak-row remapping for an extended refresh window (§4.2)."""

    def build(self, ctx: BuildContext):
        assert ctx.retention is not None
        return CrowRef(
            ctx.geometry,
            ctx.timing,
            ctx.retention,
            crow=ctx.crow_timings,
            channel=ctx.channel,
            base_window_ms=ctx.config.refresh_window_ms,
        )

    def needs_retention(self, config) -> bool:
        return True


@register_mechanism("crow-combined")
class CrowCombinedPlugin(MechanismPlugin):
    """CROW cache + ref on one substrate (paper Section 4.4)."""

    def build(self, ctx: BuildContext):
        assert ctx.retention is not None
        config = ctx.config
        return CrowCacheRef(
            ctx.geometry,
            ctx.timing,
            ctx.retention,
            crow=ctx.crow_timings,
            channel=ctx.channel,
            base_window_ms=config.refresh_window_ms,
            allow_partial_restore=config.allow_partial_restore,
            reduced_twr=config.reduced_twr,
            act_c_early_termination=config.act_c_early_termination,
            evict_partial=config.evict_partial,
        )

    def needs_retention(self, config) -> bool:
        return True


@register_mechanism("crow-hammer")
class CrowHammerPlugin(MechanismPlugin):
    """Victim-row remapping RowHammer defense (paper Section 4.3)."""

    def build(self, ctx: BuildContext):
        return RowHammerMitigation(
            ctx.geometry,
            ctx.timing,
            crow=ctx.crow_timings,
            hammer_threshold=ctx.config.hammer_threshold,
        )


@register_mechanism("ideal-crow-cache")
class IdealCrowCachePlugin(MechanismPlugin):
    """100%-hit-rate CROW-cache upper bound (Figure 14)."""

    def build(self, ctx: BuildContext):
        return IdealCrowCache(
            ctx.geometry,
            ctx.timing,
            crow=ctx.crow_timings,
            allow_partial_restore=ctx.config.allow_partial_restore,
        )

    def assume_ideal_duplicates(self, config) -> bool:
        return True


@register_mechanism("ideal")
class IdealPlugin(IdealCrowCachePlugin):
    """Ideal CROW-cache + no refresh (the Figure 14 combined bound)."""

    def uses_controller_refresh(self, config) -> bool:
        return False


@register_mechanism("tl-dram")
class TlDramPlugin(MechanismPlugin):
    """TL-DRAM near-segment baseline (paper Section 9)."""

    def build(self, ctx: BuildContext):
        return TlDram(ctx.geometry, ctx.timing)

    def geometry_overrides(self, config) -> dict:
        return {"copy_rows_per_subarray": config.tldram_near_rows}


@register_mechanism("salp")
class SalpPlugin(MechanismPlugin):
    """SALP-MASA subarray-parallelism baseline (paper Section 9)."""

    def build(self, ctx: BuildContext):
        return SalpMasa(
            ctx.geometry, ctx.timing, open_page=ctx.config.salp_open_page
        )

    def geometry_overrides(self, config) -> dict:
        return {
            "rows_per_subarray": (
                config.geometry.rows_per_bank
                // config.salp_subarrays_per_bank
            ),
            "copy_rows_per_subarray": 0,
        }

    def salp_subarrays(self, config, geometry) -> int | None:
        return geometry.subarrays_per_bank

    def controller_config(self, config, controller_config):
        if config.salp_open_page:
            return replace(controller_config, row_timeout_ns=None)
        return controller_config


@register_mechanism("chargecache")
class ChargeCachePlugin(MechanismPlugin):
    """ChargeCache recently-precharged-row baseline (paper Section 9)."""

    def build(self, ctx: BuildContext):
        return ChargeCache(ctx.geometry, ctx.timing)

    def geometry_overrides(self, config) -> dict:
        return {"copy_rows_per_subarray": 0}
