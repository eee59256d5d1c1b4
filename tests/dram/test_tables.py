"""Timing-table validation.

* :class:`CommandTables` values equal the constants the device layer
  actually schedules with (the channel *consumes* the tables, so this
  pins the compilation, not a parallel reimplementation), and
  compilation is cached per parameter set;
* every activation-timing override a run puts on the wire is one of the
  sets its mechanisms declare through ``Mechanism.timing_variants``.
"""

import pytest

from repro.core.cache import crow_safe_copy_timings
from repro.dram.geometry import DramGeometry
from repro.dram.timing import CrowTimings, TimingParameters
from repro.dram.tables import compile_timing_tables
from repro.mech import mechanism_names
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.trace.stream import TraceStream


def build_system(mechanism, **extra):
    config = SystemConfig(cores=1, mechanism=mechanism, **extra)
    return System(config, [TraceStream("libq", 1)])


class TestCommandTables:
    def test_channel_consumes_compiled_tables(self):
        system = build_system("baseline")
        timing = system.timing
        tables = compile_timing_tables(timing)
        channel = system.channels[0]
        assert channel._base_act_timings == tables.base_act
        assert channel._rd_after_rd == timing.tccd
        assert channel._rd_after_wr == timing.tcwl + timing.tbl + timing.twtr
        assert channel._wr_after_wr == timing.tccd
        assert channel._wr_after_rd == timing.tcl + timing.tbl + 2 - timing.tcwl
        assert channel._rd_data_delay == timing.tcl + timing.tbl
        assert channel._wr_done_delay == timing.tcwl + timing.tbl

    def test_compilation_is_cached_per_parameter_set(self):
        a = TimingParameters.lpddr4()
        assert compile_timing_tables(a) is compile_timing_tables(a)
        b = a.with_refresh_window(128.0)
        assert compile_timing_tables(b) is not compile_timing_tables(a)


#: Short runs that issue every mechanism's overrides: the oracle run
#: shape (libq, 2k instructions) issues a handful and none at all for
#: chargecache or clr-dram.
DECLARED_WORKLOADS = ("mcf", "h264-dec")
DECLARED_GEOMETRY = DramGeometry(channels=1, rows_per_bank=8192)

#: Mechanisms these runs must see issue at least one override, so the
#: subset check below cannot pass vacuously for them.
MUST_OVERRIDE = {
    "crow-cache", "crow-combined", "ideal-crow-cache", "ideal",
    "tl-dram", "chargecache", "clr-dram",
}


def issued_overrides(mechanism, **extra):
    """Every non-``None`` command ``timings`` of the declared-timing runs,
    after asserting each is an object the run's mechanisms declare."""
    issued, declared = [], []
    for workload in DECLARED_WORKLOADS:
        config = SystemConfig(
            mechanism=mechanism, geometry=DECLARED_GEOMETRY, **extra
        )
        system = System(config, [TraceStream(workload, 1)])

        def observe(now, command):
            if command.timings is not None:
                issued.append(command.timings)

        for channel in system.channels:
            channel.attach(observe)
        system.run(8_000, 1_000, prewarm_accesses=20_000)
        for mech in system.mechanisms:
            declared.extend(mech.timing_variants().values())
    # By identity: the declared sets must be the objects plans carry.
    declared_ids = {id(timings) for timings in declared}
    undeclared = [t for t in issued if id(t) not in declared_ids]
    assert not undeclared, f"{mechanism} issued undeclared {undeclared[0]}"
    return issued


class TestDeclaredTimings:
    """A mechanism's declared timings are the objects its plans carry."""

    @pytest.mark.parametrize("mechanism", mechanism_names())
    def test_issued_overrides_are_declared(self, mechanism):
        issued = issued_overrides(mechanism)
        if mechanism in MUST_OVERRIDE:
            assert issued, f"{mechanism} issued no timing override"

    def test_declared_set_tracks_the_crow_knobs(self):
        assert issued_overrides(
            "crow-cache",
            allow_partial_restore=False,
            reduced_twr=False,
            act_c_early_termination=False,
        )

    def test_act_c_remap_restores_fully(self):
        crow = CrowTimings.from_factors(TimingParameters.lpddr4())
        remap = crow_safe_copy_timings(crow)
        assert remap.tras_early == remap.tras_full
        assert remap.twr == crow.twr_mra_full
        assert remap.twr_full is None
        for mechanism in ("crow-ref", "crow-hammer", "crow-combined"):
            system = build_system(mechanism)
            variants = system.mechanisms[0].timing_variants()
            assert variants["act-c-remap"] is remap
