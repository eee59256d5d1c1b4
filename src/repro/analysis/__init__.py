"""Result reporting utilities.

Used by the CLI, the perf gate and the benchmark harness to turn
simulation results into paper-style fixed-width text tables, and by the
``stats`` command to draw telemetry epoch series as ASCII column charts.
"""

from repro.analysis.tables import TextTable, format_table
from repro.analysis.series import ascii_timeseries

__all__ = [
    "TextTable",
    "format_table",
    "ascii_timeseries",
]
