"""Figure 7: MRA power overhead and copy-row decoder area overhead.

Left panel: activation power vs. simultaneously-activated rows (+5.8% for
the two-row ACT-t/ACT-c commands). Right panel: the extra copy-row decoder
is tiny — 9.6 um^2 for eight copy rows against 200.9 um^2 for the 512-row
local decoder, i.e. 4.8% more decoder area and 0.48% of the whole chip.

Both panels come from the paper-calibrated circuit models
(:func:`repro.circuit.activation_power_overhead` and
:class:`repro.circuit.DecoderAreaModel`).
"""

import pytest

from repro.circuit import DecoderAreaModel, activation_power_overhead

from _harness import report


def _build_table():
    power_rows = [
        [str(n), f"{activation_power_overhead(n):.3f}"]
        for n in range(1, 10)
    ]
    report(
        "fig7_power",
        "Figure 7 (left) — activation power vs. simultaneously-activated rows",
        ["rows", "normalized power"],
        power_rows,
        notes=["paper anchor: 1.058 at two rows"],
    )
    area = DecoderAreaModel()
    area_rows = []
    overheads_by_rows = {}
    for copy_rows in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        overheads = {
            "decoder_area_um2": area.decoder_area_um2(copy_rows),
            "decoder_overhead": area.copy_decoder_overhead(copy_rows),
            "chip_overhead": area.crow_chip_overhead(copy_rows),
            "capacity_overhead": area.crow_capacity_overhead(copy_rows),
        }
        overheads_by_rows[copy_rows] = overheads
        area_rows.append([
            str(copy_rows),
            f"{overheads['decoder_area_um2']:.1f} um2",
            f"{overheads['decoder_overhead'] * 100:.2f}%",
            f"{overheads['chip_overhead'] * 100:.3f}%",
            f"{overheads['capacity_overhead'] * 100:.2f}%",
        ])
    report(
        "fig7_area",
        "Figure 7 (right) — copy-row decoder area overhead",
        ["copy rows", "decoder area", "decoder ovh", "chip ovh", "capacity"],
        area_rows,
        notes=[
            "paper anchors at 8 copy rows: 9.6 um2, 4.8% decoder, "
            "0.48% chip, 1.6% capacity",
        ],
    )
    return overheads_by_rows


def test_fig7_power_area(benchmark):
    overheads_by_rows = benchmark.pedantic(
        _build_table, rounds=1, iterations=1
    )
    at8 = overheads_by_rows[8]
    assert activation_power_overhead(2) == pytest.approx(1.058)
    assert at8["decoder_area_um2"] == pytest.approx(9.6, rel=0.01)
    assert at8["chip_overhead"] == pytest.approx(0.0048, abs=2e-4)
    assert at8["capacity_overhead"] == pytest.approx(0.0154, abs=1e-3)
