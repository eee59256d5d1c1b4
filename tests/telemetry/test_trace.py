"""Tests for the command event trace (repro.telemetry.trace)."""

import pytest

from repro.errors import ConfigError
from repro.telemetry import EventTrace


class TestRingBuffer:
    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            EventTrace(0)

    def test_records_in_order(self):
        trace = EventTrace(8)
        for tick in range(3):
            trace.record(tick, "ACT", bank=tick)
        assert len(trace) == 3
        assert trace.dropped == 0
        assert [e[0] for e in trace.events()] == [0, 1, 2]

    def test_wraparound_keeps_newest(self):
        trace = EventTrace(4)
        for tick in range(10):
            trace.record(tick, "ACT")
        assert len(trace) == 4
        assert trace.recorded == 10
        assert trace.dropped == 6
        assert [e[0] for e in trace.events()] == [6, 7, 8, 9]

    def test_reset(self):
        trace = EventTrace(4)
        trace.record(1, "ACT")
        trace.reset()
        assert len(trace) == 0 and trace.dropped == 0
        assert trace.events() == []

    def test_to_dicts_field_names(self):
        trace = EventTrace(4)
        trace.record(5, "RD", bank=2, row="col:7", detail=None)
        (event,) = trace.to_dicts()
        assert event == {"tick": 5, "cmd": "RD", "bank": 2,
                         "row": "col:7", "detail": None}

    def test_export_summary(self):
        trace = EventTrace(2)
        for tick in range(3):
            trace.record(tick, "ACT")
        export = trace.export()
        assert export["capacity"] == 2
        assert export["recorded"] == 3
        assert export["dropped"] == 1
        assert len(export["events"]) == 2


class TestCommandAdapter:
    def test_records_real_commands(self):
        from repro.dram.commands import Command, CommandKind, RowId

        trace = EventTrace(8)
        regular = RowId.regular(300, rows_per_subarray=512)
        copy = RowId.copy(0, 1)
        trace.record_command(
            10, Command(kind=CommandKind.ACT_C, bank=3,
                        rows=(regular, copy))
        )
        (event,) = trace.to_dicts()
        assert event["cmd"] == "ACT_C"
        assert event["bank"] == 3
        assert event["row"] == "s0:r300"
        assert event["detail"] == "pair:s0:c1"
