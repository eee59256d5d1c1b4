"""The mechanism plugin registry: lookup, ordering, error paths."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.mech import (
    MechanismPlugin,
    get_plugin,
    mechanism_names,
    register_mechanism,
)
from repro.__main__ import main

#: The ten pre-plugin names, in their historical order — seeded
#: samplers (fuzz scenarios, sweeps) rely on this stable prefix.
HISTORICAL = (
    "baseline",
    "crow-cache",
    "crow-ref",
    "crow-combined",
    "crow-hammer",
    "ideal-crow-cache",
    "ideal",
    "tl-dram",
    "salp",
    "chargecache",
)

DIGESTS = Path(__file__).resolve().parent.parent / "data" / "expected_digests.json"


class TestRegistry:
    def test_historical_names_keep_registration_order(self):
        assert mechanism_names()[: len(HISTORICAL)] == HISTORICAL

    def test_every_mechanism_is_pinned_by_an_oracle_digest(self):
        # ``repro mechanisms --verify`` fails a mechanism without an
        # entry, so registering one means committing its digest too.
        oracle = json.loads(DIGESTS.read_text())
        pinned = {case.removeprefix("libq-") for case in oracle}
        assert set(mechanism_names()) == pinned

    def test_related_work_plugins_registered(self):
        names = mechanism_names()
        assert {"hira", "cnc-prac", "clr-dram"} <= set(names)

    def test_get_plugin_returns_the_singleton(self):
        assert get_plugin("crow-cache") is get_plugin("crow-cache")
        assert get_plugin("hira").name == "hira"

    def test_unknown_name_lists_registered_mechanisms(self):
        with pytest.raises(ConfigError) as excinfo:
            get_plugin("magic")
        message = str(excinfo.value)
        assert "unknown mechanism 'magic'" in message
        for name in ("baseline", "crow-cache", "hira", "clr-dram"):
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError) as excinfo:

            @register_mechanism("baseline")
            class Impostor(MechanismPlugin):
                def build(self, ctx):
                    raise AssertionError("never built")

        message = str(excinfo.value)
        assert "'baseline' is already registered" in message
        assert "BaselinePlugin" in message
        # The failed registration must not have corrupted the registry.
        from repro.mech.builtin import BaselinePlugin

        assert type(get_plugin("baseline")) is BaselinePlugin

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            register_mechanism("")


class TestConfigSurface:
    def test_system_config_validates_via_registry(self):
        from repro.sim.config import SystemConfig

        with pytest.raises(ConfigError) as excinfo:
            SystemConfig(mechanism="nope")
        assert "registered mechanisms" in str(excinfo.value)

    def test_scenario_validates_via_registry(self):
        from repro.check.scenarios import Scenario

        with pytest.raises(ConfigError) as excinfo:
            Scenario(mechanism="nope")
        assert "registered mechanisms" in str(excinfo.value)

    def test_mechanisms_snapshot_matches_registry(self):
        from repro.sim.config import MECHANISMS

        assert MECHANISMS == mechanism_names()


class TestCliSurface:
    def test_mechanisms_listing(self, capsys):
        assert main(["mechanisms"]) == 0
        out = capsys.readouterr().out
        for name in mechanism_names():
            assert name in out

    def test_campaign_rejects_unknown_mechanism(self, capsys, tmp_path):
        code = main(
            ["campaign", "libq", "--mechanisms", "nope",
             "--instructions", "1000", "--warmup", "100",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown mechanism 'nope'" in err
        assert "registered mechanisms" in err
