"""Deadlock diagnostics: a stuck simulation must say *what* is stuck."""

import pytest

from repro import System, SystemConfig
from repro.errors import ReproError


def make_system(**kwargs):
    config = SystemConfig(
        cores=1, mechanism="baseline", refresh_enabled=False, **kwargs
    )
    return System(config, [iter([])])


class TestDeadlockMessage:
    def test_exhausted_trace_deadlocks_with_diagnostics(self):
        # An empty trace can never retire the measured quota: once the
        # core drains its window every component reports IDLE and the
        # stepper must fail loudly instead of spinning.
        system = make_system()
        with pytest.raises(ReproError) as exc:
            system.run(
                instructions=100, warmup_instructions=0, prewarm_accesses=0
            )
        message = str(exc.value)
        assert "simulation deadlock at cycle" in message
        assert str(system.now) in message
        assert "core0=idle" in message
        assert "controller0=idle" in message
        assert "event-queue=idle" in message

    def test_message_renders_numeric_wake_times(self):
        # Finite wake times (a component that *is* scheduled) print as
        # numbers so the report distinguishes idle from merely waiting.
        system = make_system()
        system.cores[0].next_wake = 123
        message = system._deadlock_message()
        assert "core0=123" in message
        assert "controller0=" in message
        assert f"deadlock at cycle {system.now}" in message
