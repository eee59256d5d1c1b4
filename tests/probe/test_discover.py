"""End-to-end structure inference: discover + verify on small devices.

Every test here infers from observed behaviour alone (a
:class:`ProbeSession` never leaks its config to the routines) and then
checks the inference against the generating config with
``verify_against`` — the paper-facing acceptance criterion.
"""

from dataclasses import replace

import pytest

from repro.circuit.mra import CrowTimingFactors, derive_crow_timing_factors
from repro.dram.geometry import DramGeometry
from repro.dram.timing import scale_cycles
from repro.probe.infer import ground_truth
from repro.probe.routines import discover
from repro.probe.session import ProbeSession
from repro.sim import factory
from repro.sim.config import SystemConfig

from tests.probe.conftest import shaved, small_config

MECHANISMS = ["baseline", "crow-cache", "crow-ref", "salp"]


def _device(mechanism, density, banks, rows_per_bank, rows_per_subarray):
    geometry = DramGeometry(
        banks_per_rank=banks,
        rows_per_bank=rows_per_bank,
        rows_per_subarray=rows_per_subarray,
    )
    return SystemConfig(
        mechanism=mechanism,
        density_gbit=density,
        copy_rows=8,
        refresh_window_ms=64.0,
        target_refresh_window_ms=128.0,
        weak_rows_per_subarray=3,
        seed=1,
        geometry=replace(geometry, density_gbit=density),
    )


# The small fixture device for each mechanism, plus two larger shapes at
# another density, bank count and subarray size: a model change that
# moves an observable timing or the CROW boot layout at any of them fails
# here even if no unit test pins that exact value.
DEVICES = [small_config(mechanism) for mechanism in MECHANISMS] + [
    _device("baseline", 16, banks=4, rows_per_bank=4096,
            rows_per_subarray=512),
    _device("crow-cache", 8, banks=8, rows_per_bank=2048,
            rows_per_subarray=256),
]
DEVICE_IDS = MECHANISMS + ["baseline-16g-4x4096", "crow-cache-8g-8x2048"]


@pytest.mark.parametrize("config", DEVICES, ids=DEVICE_IDS)
def test_discover_matches_generating_config(config):
    session = ProbeSession(config)
    profile = discover(session)
    report = profile.verify_against(config)
    assert report.ok, report.summary()
    assert not report.mismatched


def test_geometry_inferred_exactly():
    config = small_config("crow-cache")
    profile = discover(ProbeSession(config))
    geometry = config.resolved_geometry()
    assert profile.value("banks") == geometry.banks_per_channel
    assert profile.value("rows_per_bank") == geometry.rows_per_bank
    assert profile.value("rows_per_subarray") == geometry.rows_per_subarray
    assert (
        profile.value("copy_rows_per_subarray")
        == geometry.copy_rows_per_subarray
    )
    assert (
        profile.value("subarrays_per_bank") == geometry.subarrays_per_bank
    )


def test_core_timings_match_ground_truth():
    config = small_config("baseline")
    profile = discover(ProbeSession(config))
    truth = ground_truth(config)
    for name in ("trcd", "tras", "trp", "trc", "trrd", "tccd",
                 "trtp", "read_latency", "write_latency", "trfc"):
        assert profile.value(name) == truth["parameters"][name], name


def test_weak_rows_recovered_from_retention_behaviour():
    config = small_config("crow-ref")
    profile = discover(ProbeSession(config))
    truth = ground_truth(config)
    assert profile.weak_rows == truth["weak_rows"]


def test_duplicate_map_recovered_on_crow_ref():
    # CROW-ref boots with every weak row remapped to a copy row; the
    # probe recovers the full (bank, subarray, slot) -> row map from
    # checker-visible in-service scans plus the retention scan.
    config = small_config("crow-ref")
    profile = discover(ProbeSession(config))
    truth = ground_truth(config)
    assert profile.duplicate_map_observed
    assert profile.duplicate_map == truth["duplicate_map"]


def test_shaved_trcd_detected_as_mismatch():
    # A device whose true tRCD is 4 cycles short of what its config
    # claims: inference measures behaviour, so verification must flag
    # exactly that one parameter (tRCD feeds no other probed value).
    config = small_config("baseline")
    base = shaved(config)
    lying = ProbeSession(
        config, timing=shaved(config, trcd=base.trcd - 4), shadow=False
    )
    profile = discover(lying)
    report = profile.verify_against(config)
    assert not report.ok
    mismatched = [
        (diff.name, diff.inferred, diff.actual)
        for diff in report.mismatched
    ]
    assert mismatched == [("trcd", base.trcd - 4, base.trcd)]


#: Probed CROW gap -> (baseline parameter, Table 1 factor field).
ACT_GAP_FACTORS = {
    "trcd_act_t_full": ("trcd", "act_t_full_trcd"),
    "trcd_act_t_partial": ("trcd", "act_t_partial_trcd"),
    "tras_act_t_full": ("tras", "act_t_tras_full"),
    "tras_act_t_early": ("tras", "act_t_tras_early"),
    "tras_act_t_partial_early": ("tras", "act_t_partial_tras_early"),
    "trcd_act_c": ("trcd", "act_c_trcd"),
    "tras_act_c_full": ("tras", "act_c_tras_full"),
    "tras_act_c_early": ("tras", "act_c_tras_early"),
}


def _factor_cycles(base, factors) -> dict:
    return {
        name: scale_cycles(getattr(base, param), getattr(factors, field))
        for name, (param, field) in ACT_GAP_FACTORS.items()
    }


def test_derived_circuit_factors_reach_probed_act_gaps():
    # The chain repro.circuit -> CrowTimings -> device: with
    # use_derived_circuit_factors the probed ACT-t/ACT-c gaps are the
    # circuit model's Table 1 factors applied to the baseline timing.
    config = small_config("crow-cache", use_derived_circuit_factors=True)
    base = factory.base_timing(config)
    expected = _factor_cycles(base, derive_crow_timing_factors())
    # The derived factors land on other cycle counts than the published
    # ones, so a device that ignored the flag would fail below.
    assert expected != _factor_cycles(base, CrowTimingFactors.paper())
    profile = discover(ProbeSession(config))
    assert {name: profile.value(name) for name in expected} == expected
    assert profile.verify_against(config).ok


def test_shaved_trcd_under_derived_factors_detected_as_mismatch():
    # A derived-factor device whose true tRCD is 4 cycles short: the
    # mismatch reaches exactly tRCD and the three CROW gaps scaled from
    # it, each at its factor-scaled value; no tRAS gap moves.
    config = small_config("crow-cache", use_derived_circuit_factors=True)
    base = shaved(config)
    lying = ProbeSession(
        config, timing=shaved(config, trcd=base.trcd - 4), shadow=False
    )
    report = discover(lying).verify_against(config)
    assert not report.ok
    factors = derive_crow_timing_factors()
    expected = [("trcd", base.trcd - 4, base.trcd)] + [
        (
            name,
            scale_cycles(base.trcd - 4, getattr(factors, field)),
            scale_cycles(base.trcd, getattr(factors, field)),
        )
        for name, (param, field) in ACT_GAP_FACTORS.items()
        if param == "trcd"
    ]
    mismatched = [
        (diff.name, diff.inferred, diff.actual)
        for diff in report.mismatched
    ]
    assert sorted(mismatched) == sorted(expected)


def test_probe_sequences_pass_strict_conformance():
    # The shadow checker runs in strict mode: any committed probe
    # sequence that violated the protocol would raise out of discover.
    # Reaching a verified profile with the shadow attached IS the
    # conformance assertion; the budget proves the checker actually saw
    # committed traffic.
    config = small_config("crow-cache")
    session = ProbeSession(config, shadow=True)
    profile = discover(session)
    assert session.checker is not None
    assert profile.verify_against(config).ok
    assert session.budget()["probe.commits"] > 0


def test_discover_without_shadow_degrades_gracefully():
    # No checker: CROW mapping state is invisible, so the duplicate map
    # is reported unobservable (a skipped diff), never guessed at —
    # and everything that is observable still verifies.
    config = small_config("crow-cache")
    profile = discover(ProbeSession(config, shadow=False))
    assert not profile.duplicate_map_observed
    report = profile.verify_against(config)
    assert report.ok, report.summary()
    skipped = {d.name for d in report.diffs if d.status == "skipped"}
    assert "duplicate_map" in skipped


def test_probe_banks_scopes_the_retention_scan():
    config = small_config("crow-ref")
    profile = discover(ProbeSession(config), probe_banks=[1])
    truth = ground_truth(config)
    assert set(profile.weak_rows) == {1}
    assert profile.weak_rows[1] == truth["weak_rows"][1]
