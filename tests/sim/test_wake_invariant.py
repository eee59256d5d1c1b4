"""The timed loop's fused min-wake scan, checked tick by tick.

``System._run_until`` computes the next step's cycle while it ticks:
each component's wake is read once its own tick (if due) returned, the
event heap's head last. That is exact only if a tick never lowers the
wake of a component scanned before it. These tests wrap ``Core.tick``
and ``ChannelController.tick`` and assert a stronger rule after every
tick: no other component's wake went down, except a controller's that a
core tick lowered by enqueueing a request to it. The loop also checks
``done()`` only after steps in which a core ticked, so every event the
loop fires is checked to leave what ``done()`` reads — each core's
retired count and finish cycle — unchanged.

The runs cover every registered mechanism at the oracle run shape, a
two-core mix with the prefetcher, and HiRA on a write-heavy trace with
the protocol checker and telemetry on.
"""

import heapq

import pytest

from repro import SystemConfig, run_mix, run_workload
from repro.check.scenarios import ORACLE_RUN
from repro.controller import ChannelController
from repro.cpu import Core
from repro.mech import mechanism_names
from repro.sim.system import System


@pytest.fixture
def checked(monkeypatch):
    """Install the per-tick and per-event checks; yields their counts."""
    components = []
    names = []
    cores = []
    enqueued = set()
    counts = {"core": 0, "controller": 0, "event": 0}

    def run_until(self, *args, **kwargs):
        components[:] = [*self.cores, *self.controllers]
        names[:] = [f"core{i}" for i in range(len(self.cores))] + [
            f"controller{i}" for i in range(len(self.controllers))
        ]
        cores[:] = self.cores
        return original_run_until(self, *args, **kwargs)

    def checked_tick(tick, kind):
        def wrapper(self, now):
            before = [component.next_wake for component in components]
            enqueued.clear()
            wake = tick(self, now)
            counts[kind] += 1
            for component, name, was in zip(components, names, before):
                if component is self or component.next_wake >= was:
                    continue
                ticker = names[components.index(self)]
                assert kind == "core" and component in enqueued, (
                    f"{ticker} tick at cycle {now} lowered {name}'s wake "
                    f"{was} -> {component.next_wake}"
                )
            return wake
        return wrapper

    def recording_enqueue(self, request, now):
        enqueued.add(self)
        return original_enqueue(self, request, now)

    def done_state():
        return [(core.retired, core.finish_cycle) for core in cores]

    def checked_pop(heap):
        when, seq, fn = original_pop(heap)

        def event(at):
            before = done_state()
            fn(at)
            counts["event"] += 1
            assert done_state() == before, (
                f"event {fn!r} at cycle {at} changed what done() reads"
            )
        return when, seq, event

    original_run_until = System._run_until
    original_enqueue = ChannelController.enqueue
    original_pop = heapq.heappop
    monkeypatch.setattr(System, "_run_until", run_until)
    monkeypatch.setattr(Core, "tick", checked_tick(Core.tick, "core"))
    monkeypatch.setattr(
        ChannelController, "tick",
        checked_tick(ChannelController.tick, "controller"),
    )
    monkeypatch.setattr(ChannelController, "enqueue", recording_enqueue)
    monkeypatch.setattr(heapq, "heappop", checked_pop)
    yield counts
    assert all(counts.values()), counts


@pytest.mark.parametrize("mechanism", mechanism_names())
def test_oracle_run_keeps_wake_invariant(checked, mechanism):
    config = SystemConfig(
        cores=1, mechanism=mechanism, seed=ORACLE_RUN.seed, telemetry=True
    )
    run_workload(
        ORACLE_RUN.workload,
        config,
        instructions=ORACLE_RUN.instructions,
        warmup_instructions=ORACLE_RUN.warmup_instructions,
    )


def test_prefetcher_mix_keeps_wake_invariant(checked):
    config = SystemConfig(
        mechanism="crow-cache", prefetcher=True, seed=ORACLE_RUN.seed
    )
    run_mix(
        ["libq", "mcf"],
        config,
        instructions=ORACLE_RUN.instructions,
        warmup_instructions=ORACLE_RUN.warmup_instructions,
    )


def test_checked_telemetry_run_keeps_wake_invariant(checked):
    config = SystemConfig(
        cores=1, mechanism="hira", check=True, telemetry=True,
        seed=ORACLE_RUN.seed,
    )
    run_workload(
        "random",
        config,
        instructions=ORACLE_RUN.instructions,
        warmup_instructions=ORACLE_RUN.warmup_instructions,
    )
