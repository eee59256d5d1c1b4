"""Compiled-table validation: one source of truth, checked three ways.

* :class:`CommandTables` values equal the constants the device layer
  actually schedules with (the channel now *consumes* the tables, so
  this pins the compilation, not a parallel reimplementation);
* the per-mechanism ``timing_variants`` hook reproduces the exact
  :class:`ActTimings` objects the live mechanism instances put on the
  wire;
* compilation is cached per parameter set.
"""

import pytest

from repro.dram.commands import CommandKind
from repro.dram.timing import TimingParameters
from repro.dram.tables import (
    COMMAND_LEGALITY,
    compile_act_variants,
    compile_timing_tables,
)
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
        assert channel.tables is tables
        assert channel._base_act_timings == tables.base_act
        assert channel._rd_after_rd == timing.tccd
        assert channel._rd_after_wr == timing.tcwl + timing.tbl + timing.twtr
        assert channel._wr_after_wr == timing.tccd
        assert channel._wr_after_rd == timing.tcl + timing.tbl + 2 - timing.tcwl
        assert channel._rd_data_delay == timing.tcl + timing.tbl
        assert channel._wr_done_delay == timing.tcwl + timing.tbl
        assert tables.trrd == timing.trrd
        assert tables.tfaw == timing.tfaw
        assert tables.trfc == timing.trfc

    def test_bus_cycles_charge_crow_activations_double(self):
        tables = compile_timing_tables(TimingParameters.lpddr4())
        for kind in CommandKind:
            expected = 2 if kind in (CommandKind.ACT_C, CommandKind.ACT_T) else 1
            assert tables.bus_cycles[kind] == expected

    def test_compilation_is_cached_per_parameter_set(self):
        a = TimingParameters.lpddr4()
        assert compile_timing_tables(a) is compile_timing_tables(a)
        b = a.with_refresh_window(128.0)
        assert compile_timing_tables(b) is not compile_timing_tables(a)

    def test_legality_covers_every_command_kind(self):
        assert set(COMMAND_LEGALITY) == set(CommandKind)
        with pytest.raises(TypeError):
            COMMAND_LEGALITY[CommandKind.ACT] = "open"


class TestActVariantsMatchLiveMechanisms:
    """The compiled variants must be the live objects' timing sets."""

    def variants_for(self, system):
        return compile_act_variants(
            system.config, system.timing, system.crow_timings
        )

    def test_base_act_always_present(self):
        system = build_system("baseline")
        variants = self.variants_for(system)
        assert set(variants) == {"act"}
        assert variants["act"] == system.channels[0]._base_act_timings

    def test_crow_cache_variants(self):
        system = build_system("crow-cache")
        mech = system.mechanisms[0]
        variants = self.variants_for(system)
        assert variants["act-t-full"] == mech.act_t_timings(True)
        assert variants["act-t-partial"] == mech.act_t_timings(False)
        assert variants["act-t-restore"] == mech.act_t_timings(
            False, force_full=True
        )
        assert variants["act-c"] == mech.act_c_timings()

    def test_crow_cache_variants_track_config_knobs(self):
        system = build_system(
            "crow-cache",
            allow_partial_restore=False,
            reduced_twr=False,
            act_c_early_termination=False,
        )
        mech = system.mechanisms[0]
        variants = self.variants_for(system)
        assert variants["act-t-full"] == mech.act_t_timings(True)
        assert variants["act-c"] == mech.act_c_timings()

    def test_crow_ref_remap_variant(self):
        from repro.dram.commands import ActTimings

        system = build_system("crow-ref")
        mech = system.mechanisms[0]
        variants = self.variants_for(system)
        # CrowRef constructs its safe-copy set inline from its crow
        # factors (ref.py _plan_dynamic_remap); mirror that construction.
        assert variants["act-c-remap"] == ActTimings(
            trcd=mech.crow.trcd_act_c,
            tras_full=mech.crow.tras_act_c_full,
            tras_early=mech.crow.tras_act_c_full,
            twr=mech.crow.twr_mra_full,
        )

    def test_clr_dram_variant(self):
        system = build_system("clr-dram")
        mech = system.mechanisms[0]
        variants = self.variants_for(system)
        assert variants["act-coupled"] == mech._fast

    def test_tldram_variants(self):
        system = build_system("tl-dram")
        mech = system.mechanisms[0]
        variants = self.variants_for(system)
        assert variants["act-near"] == mech._near_timings
        assert variants["act-far"] == mech._far_timings
        assert variants["act-c-copy"] == mech._copy_timings

    def test_chargecache_variant(self):
        system = build_system("chargecache")
        mech = system.mechanisms[0]
        variants = self.variants_for(system)
        assert variants["act-charged"] == mech._fast_timings

    def test_ideal_crow_variant(self):
        system = build_system("ideal-crow-cache")
        mech = system.mechanisms[0]
        variants = self.variants_for(system)
        assert variants["act-t-ideal"] == mech._timings

    def test_combined_union(self):
        system = build_system("crow-combined")
        variants = self.variants_for(system)
        assert {"act", "act-t-full", "act-t-partial", "act-t-restore",
                "act-c", "act-c-remap"} == set(variants)
