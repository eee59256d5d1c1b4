"""The inert ``SystemConfig.engine`` field.

The simulator has one timed loop and one pre-warm, so ``engine`` selects
nothing. The field survives for configs that still name an engine: it
is validated, and it is excluded from every caching digest, so naming
an engine never changes a cache key, a warm image or a snapshot header.
Results are pinned by the oracle digests in ``tests/sim``.
"""

import pytest

from repro import SystemConfig
from repro.sim.campaign import config_digest, task_digest
from repro.snapshot import warmup_digest


class TestEngineDigestExclusion:
    def test_config_digest_ignores_engine(self):
        assert config_digest(SystemConfig(engine="batch")) == config_digest(
            SystemConfig(engine="event")
        )

    def test_warmup_digest_ignores_engine(self):
        assert warmup_digest(SystemConfig(engine="batch")) == warmup_digest(
            SystemConfig(engine="event")
        )

    def test_task_digest_ignores_engine(self):
        kwargs = dict(
            kind="workload",
            names=("libq",),
            instructions=1000,
            warmup_instructions=100,
            seed=1,
        )
        assert task_digest(
            config=SystemConfig(engine="batch"), **kwargs
        ) == task_digest(config=SystemConfig(engine="event"), **kwargs)

    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="engine"):
            SystemConfig(engine="warp")
