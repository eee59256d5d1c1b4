"""Row-decoder and DRAM-chip area models (Figure 7 right, Figure 11b).

Calibrated to the area points the paper reports from its CACTI/layout
evaluation:

* a conventional 512-row local row decoder occupies 200.9 µm²,
* the extra copy-row decoder for 8 copy rows occupies 9.6 µm²
  (4.8% decoder overhead, 0.48% of the whole DRAM chip),
* TL-DRAM-8 costs 6.9% of chip area (per-bitline isolation transistors),
* SALP-256 costs 28.9% and SALP-512 84.5% (additional sense-amp stripes),
  while SALP-128 costs 0.6% (subarray-select logic only).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["DecoderAreaModel"]


@dataclass(frozen=True)
class DecoderAreaModel:
    """Area model for row decoders and in-DRAM-cache chip overheads.

    Attributes
    ----------
    fixed_area_um2:
        Predecode/enable logic cost of instantiating a decoder at all.
    per_row_area_um2:
        Wordline-driver cost per decoded row.
    decoder_chip_fraction:
        Fraction of total DRAM chip area occupied by row-decoder logic;
        converts decoder overhead into chip overhead.
    baseline_rows_per_subarray:
        Rows driven by the conventional local row decoder.
    """

    fixed_area_um2: float = 6.56
    per_row_area_um2: float = 0.3796
    decoder_chip_fraction: float = 0.10
    baseline_rows_per_subarray: int = 512
    #: Chip-area share of one full set of sense-amplifier stripes; SALP
    #: configurations that shrink subarrays add whole extra stripe sets.
    senseamp_stripe_share: float = 0.283
    #: Chip overhead of SALP's subarray-select logic alone.
    salp_logic_overhead: float = 0.006
    #: Chip overhead of TL-DRAM's per-bitline isolation transistors plus
    #: near-segment decode (calibrated to TL-DRAM-8 = 6.9%).
    tldram_base_overhead: float = 0.067
    tldram_per_near_row: float = 0.00025

    def decoder_area_um2(self, rows: int) -> float:
        """Area of a row decoder driving ``rows`` wordlines."""
        if rows < 1:
            raise ConfigError(f"rows must be >= 1, got {rows}")
        return self.fixed_area_um2 + self.per_row_area_um2 * rows

    def copy_decoder_overhead(self, copy_rows: int) -> float:
        """Figure 7 (right): copy-row decoder area over the local decoder.

        With no copy rows there is no copy-row decoder, so the overhead
        is zero rather than the fixed cost of instantiating one.
        """
        if copy_rows < 0:
            raise ConfigError(f"copy_rows must be >= 0, got {copy_rows}")
        if copy_rows == 0:
            return 0.0
        baseline = self.decoder_area_um2(self.baseline_rows_per_subarray)
        return self.decoder_area_um2(copy_rows) / baseline

    def crow_chip_overhead(self, copy_rows: int) -> float:
        """DRAM chip area overhead of the CROW substrate.

        0.48% for the default eight copy rows per subarray.
        """
        return self.copy_decoder_overhead(copy_rows) * self.decoder_chip_fraction

    def crow_capacity_overhead(
        self, copy_rows: int, regular_rows: int | None = None
    ) -> float:
        """Fraction of DRAM storage reserved for copy rows (1.6% at 8/512)."""
        regular = (
            self.baseline_rows_per_subarray if regular_rows is None else regular_rows
        )
        if copy_rows < 0:
            raise ConfigError(
                f"copy_rows must be >= 0, got {copy_rows}"
            )
        if regular < 1:
            raise ConfigError(
                f"regular_rows must be >= 1, got {regular} "
                "(a subarray with no regular rows has no capacity to "
                "reserve copy rows from)"
            )
        return copy_rows / (regular + copy_rows)

    def tldram_chip_overhead(self, near_rows: int) -> float:
        """Chip overhead of TL-DRAM with a ``near_rows``-row near segment."""
        if near_rows < 1:
            raise ConfigError(f"near_rows must be >= 1, got {near_rows}")
        return self.tldram_base_overhead + self.tldram_per_near_row * near_rows

    def salp_chip_overhead(self, subarrays_per_bank: int) -> float:
        """Chip overhead of SALP with ``subarrays_per_bank`` subarrays.

        The baseline organization has 128 subarrays per bank; increasing
        the subarray count (to raise in-DRAM cache capacity) adds whole
        sense-amplifier stripe sets, which dominate the cost.
        """
        if subarrays_per_bank < 1:
            raise ConfigError(
                f"subarrays_per_bank must be >= 1, got {subarrays_per_bank}"
            )
        if not _is_power_of_two(subarrays_per_bank):
            raise ConfigError(
                f"subarrays_per_bank must be a power of two, got "
                f"{subarrays_per_bank} (subarray-select decode is binary)"
            )
        baseline = 128
        if subarrays_per_bank <= baseline:
            return self.salp_logic_overhead
        extra_stripes = subarrays_per_bank / baseline - 1.0
        return self.salp_logic_overhead + self.senseamp_stripe_share * extra_stripes


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0
