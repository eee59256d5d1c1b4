"""Builtin plugins: the CROW family and the paper's baselines.

These port the ten pre-plugin mechanism names onto the registry with
**byte-identical** behaviour — each ``build`` body is the corresponding
branch of the old ``sim/factory.build_mechanism`` if-chain, each
``geometry_overrides`` the matching ``SystemConfig.resolved_geometry``
branch, and the wiring hooks reproduce the name checks that used to be
spread through ``System.__init__``. The committed telemetry-digest
oracle (``tests/data/expected_digests.json``) is the proof.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines import ChargeCache, IdealCrowCache, SalpMasa, TlDram
from repro.baselines.tldram import TLDRAM_TIMING_FACTORS
from repro.controller.mechanism import NoMechanism
from repro.core import CrowCache, CrowCacheRef, CrowRef, RowHammerMitigation
from repro.core.cache import crow_act_c_timings, crow_act_t_timings
from repro.dram.commands import ActTimings
from repro.dram.timing import CrowTimings, scale_cycles
from repro.mech.plugin import BuildContext, MechanismPlugin
from repro.mech.registry import register_mechanism

__all__: list[str] = []


def _resolved_crow(timing, crow_timings) -> CrowTimings:
    return (
        crow_timings
        if crow_timings is not None
        else CrowTimings.from_factors(timing)
    )


def _safe_copy_timings(crow: CrowTimings) -> ActTimings:
    """``ACT-c`` for remap duplication: the copy must restore fully (it
    will later be activated alone), so early termination is forbidden.
    Mirrors the inline construction in CrowRef/RowHammerMitigation."""
    return ActTimings(
        trcd=crow.trcd_act_c,
        tras_full=crow.tras_act_c_full,
        tras_early=crow.tras_act_c_full,
        twr=crow.twr_mra_full,
    )


class _CrowCacheVariants:
    """Shared ``timing_variants`` for the CROW-cache family plugins."""

    def timing_variants(self, config, timing, crow_timings) -> dict:
        crow = _resolved_crow(timing, crow_timings)
        partial = config.allow_partial_restore
        twr = config.reduced_twr
        return {
            "act-t-full": crow_act_t_timings(
                crow, partial, twr, fully_restored=True
            ),
            "act-t-partial": crow_act_t_timings(
                crow, partial, twr, fully_restored=False
            ),
            "act-t-restore": crow_act_t_timings(
                crow, partial, twr, fully_restored=False, force_full=True
            ),
            "act-c": crow_act_c_timings(
                crow, partial, twr, config.act_c_early_termination
            ),
        }


@register_mechanism("baseline")
class BaselinePlugin(MechanismPlugin):
    """Conventional DRAM (the paper's baseline)."""

    def build(self, ctx: BuildContext):
        return NoMechanism(ctx.geometry, ctx.timing)

    def geometry_overrides(self, config) -> dict:
        return {"copy_rows_per_subarray": 0}


@register_mechanism("crow-cache")
class CrowCachePlugin(_CrowCacheVariants, MechanismPlugin):
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

    def timing_variants(self, config, timing, crow_timings) -> dict:
        crow = _resolved_crow(timing, crow_timings)
        return {"act-c-remap": _safe_copy_timings(crow)}


@register_mechanism("crow-combined")
class CrowCombinedPlugin(_CrowCacheVariants, MechanismPlugin):
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

    def timing_variants(self, config, timing, crow_timings) -> dict:
        variants = super().timing_variants(config, timing, crow_timings)
        variants["act-c-remap"] = _safe_copy_timings(
            _resolved_crow(timing, crow_timings)
        )
        return variants


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

    def timing_variants(self, config, timing, crow_timings) -> dict:
        crow = _resolved_crow(timing, crow_timings)
        return {"act-c-remap": _safe_copy_timings(crow)}


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

    def timing_variants(self, config, timing, crow_timings) -> dict:
        crow = _resolved_crow(timing, crow_timings)
        partial = config.allow_partial_restore
        return {
            "act-t-ideal": ActTimings(
                trcd=crow.trcd_act_t_full,
                tras_full=crow.tras_act_t_full,
                tras_early=(
                    crow.tras_act_t_early if partial else crow.tras_act_t_full
                ),
                twr=crow.twr_mra_early if partial else crow.twr_mra_full,
                twr_full=crow.twr_mra_full if partial else None,
            ),
        }


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

    def timing_variants(self, config, timing, crow_timings) -> dict:
        f = TLDRAM_TIMING_FACTORS
        return {
            "act-near": ActTimings(
                trcd=scale_cycles(timing.trcd, f.near_trcd),
                tras_full=scale_cycles(timing.tras, f.near_tras),
                tras_early=scale_cycles(timing.tras, f.near_tras),
                twr=timing.twr,
            ),
            "act-far": ActTimings(
                trcd=scale_cycles(timing.trcd, f.far_trcd),
                tras_full=scale_cycles(timing.tras, f.far_tras),
                tras_early=scale_cycles(timing.tras, f.far_tras),
                twr=timing.twr,
            ),
            "act-c-copy": ActTimings(
                trcd=scale_cycles(timing.trcd, f.far_trcd),
                tras_full=scale_cycles(timing.tras, f.copy_tras),
                tras_early=scale_cycles(timing.tras, f.copy_tras),
                twr=timing.twr,
            ),
        }


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

    def timing_variants(self, config, timing, crow_timings) -> dict:
        # Default ChargeCache factors: tRCD -21%, tRAS -5% [26].
        return {
            "act-charged": ActTimings(
                trcd=scale_cycles(timing.trcd, 0.79),
                tras_full=scale_cycles(timing.tras, 0.95),
                tras_early=scale_cycles(timing.tras, 0.95),
                twr=timing.twr,
            ),
        }
