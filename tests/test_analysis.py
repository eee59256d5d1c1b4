"""Tests for the analysis/reporting utilities."""

import pytest

from repro.analysis import TextTable, ascii_timeseries, format_table
from repro.errors import ConfigError


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0] == "a    bb"
        assert lines[1] == "---  --"
        assert lines[2] == "1    2 "

    def test_title_and_notes(self):
        text = format_table(["x"], [["1"]], title="t", notes=["n"])
        assert text.startswith("== t ==")
        assert text.endswith("note: n")

    def test_arity_mismatch(self):
        with pytest.raises(ConfigError):
            format_table(["a", "b"], [["only one"]])


class TestTextTable:
    def test_float_formatting(self):
        table = TextTable("t", ["name", "value"]).add_row("x", 1.23456)
        assert "1.235" in table.render()

    def test_bool_formatting(self):
        table = TextTable("t", ["name", "value"]).add_row("x", True)
        assert "yes" in table.render()

    def test_chaining(self):
        text = (
            TextTable("t", ["a"])
            .add_row(1)
            .add_row(2)
            .add_note("hello")
            .render()
        )
        assert "hello" in text

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigError):
            TextTable("t", [])


class TestAsciiTimeseries:
    def test_basic_render(self):
        chart = ascii_timeseries([0.1, 0.5, 1.0, 0.5], title="ipc")
        assert chart.startswith("ipc")
        assert "#" in chart
        assert "epoch 0..3 (4 samples)" in chart

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ascii_timeseries([])

    def test_all_gaps_rejected(self):
        with pytest.raises(ConfigError):
            ascii_timeseries([None, float("nan"), None])

    def test_gaps_render_as_blank_columns(self):
        chart = ascii_timeseries([1.0, None, 1.0], width=10, height=3)
        rows = [line.split("|", 1)[1] for line in chart.splitlines()
                if "|" in line]
        # The middle column is blank in every grid row.
        assert all(row[1] == " " for row in rows)
        assert all(row[0] == "#" for row in rows)

    def test_non_finite_samples_become_gaps(self):
        chart = ascii_timeseries([1.0, float("inf"), 2.0])
        assert "3 samples" in chart

    def test_downsamples_long_series(self):
        values = [float(i % 7) for i in range(1000)]
        chart = ascii_timeseries(values, width=20, height=4)
        grid_rows = [line for line in chart.splitlines() if "|" in line]
        assert all(len(row.split("|", 1)[1]) <= 20 for row in grid_rows)
        assert "1000 samples" in chart

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            ascii_timeseries([1.0], width=4)
        with pytest.raises(ConfigError):
            ascii_timeseries([1.0], height=1)
