"""ProbeSpec through the execution stack: digests, execution, cache."""

import pickle

import pytest

from repro.errors import ConfigError
from repro.exec.parallel import ParallelCampaign
from repro.probe.campaign import ProbeResult, ProbeSpec, execute_probe

from tests.probe.conftest import small_config


def spec_for(mechanism: str = "baseline", **kwargs) -> ProbeSpec:
    return ProbeSpec.device(small_config(mechanism), **kwargs)


class TestIdentity:
    def test_digest_is_deterministic(self):
        assert spec_for().digest() == spec_for().digest()

    def test_probe_fields_fold_into_digest(self):
        base = spec_for()
        assert spec_for(channel=1).digest() != base.digest()
        assert spec_for(shadow=False).digest() != base.digest()
        assert spec_for(probe_banks=(0,)).digest() != base.digest()
        assert spec_for(verify=False).digest() != base.digest()
        assert (
            spec_for(retention_interval_ms=256.0).digest() != base.digest()
        )

    def test_config_folds_into_digest(self):
        assert spec_for("crow-cache").digest() != spec_for().digest()

    def test_cache_filename_names_the_family(self):
        spec = spec_for("crow-cache", channel=1)
        name = spec.cache_filename()
        assert name.startswith("probe-crow-cache-ch1-")
        assert spec.digest() in name

    def test_invalid_kind_rejected(self):
        import dataclasses

        with pytest.raises(ConfigError):
            dataclasses.replace(spec_for(), kind="oracle")

    def test_negative_channel_rejected(self):
        with pytest.raises(ConfigError):
            spec_for(channel=-1)


class TestExecution:
    def test_run_produces_verified_result(self):
        result = spec_for().run()
        assert isinstance(result, ProbeResult)
        assert result.ok
        assert result.report is not None and result.report.ok
        assert result.telemetry_digest() is not None

    def test_verify_false_skips_the_report(self):
        result = spec_for(verify=False).run()
        assert result.report is None
        assert result.ok  # vacuously

    def test_result_pickles(self):
        result = spec_for().run()
        clone = pickle.loads(pickle.dumps(result))
        assert clone.telemetry_digest() == result.telemetry_digest()
        assert clone.report.ok

    def test_campaign_caches_probe_results(self, tmp_path):
        spec = spec_for(probe_banks=(0,))
        with ParallelCampaign(tmp_path, jobs=1) as campaign:
            first = campaign.run([spec], _fn=execute_probe)[0]
        assert first.ok and not first.cached
        assert isinstance(first.result, ProbeResult)
        with ParallelCampaign(tmp_path, jobs=1) as campaign:
            second = campaign.run([spec], _fn=execute_probe)[0]
        assert second.cached
        assert (
            second.result.telemetry_digest()
            == first.result.telemetry_digest()
        )
