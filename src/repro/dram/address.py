"""Physical-address interleaving across channels, banks, rows and columns.

The default mapping (low bits to high bits) is::

    [line offset][channel][column][bank][row]

which stripes consecutive cache lines across channels first and then across
the columns of a row, maximizing row-buffer locality for streaming access —
the standard choice in LPDDR4 mobile systems and the layout assumed by the
paper's Table 2 configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.dram.geometry import DramGeometry
from repro.errors import ConfigError

__all__ = ["DramAddress", "AddressMapper"]


class DramAddress(NamedTuple):
    """Decoded location of one cache line in the memory system."""

    channel: int
    rank: int
    bank: int
    row: int
    col: int


def _bits(value: int) -> int:
    if value < 1 or value & (value - 1):
        raise ConfigError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


@dataclass(frozen=True)
class AddressMapper:
    """Bidirectional physical-address <-> DRAM-coordinate mapping."""

    geometry: DramGeometry = DramGeometry()

    @property
    def offset_bits(self) -> int:
        """Bits covered by the line offset."""
        return _bits(self.geometry.line_size_bytes)

    @property
    def channel_bits(self) -> int:
        """Bits selecting the channel."""
        return _bits(self.geometry.channels)

    @property
    def col_bits(self) -> int:
        """Bits selecting the column (line slot within a row)."""
        return _bits(self.geometry.columns_per_row)

    @property
    def bank_bits(self) -> int:
        """Bits selecting the bank."""
        return _bits(self.geometry.banks_per_rank)

    @property
    def rank_bits(self) -> int:
        """Bits selecting the rank."""
        return _bits(self.geometry.ranks_per_channel)

    @property
    def row_bits(self) -> int:
        """Bits selecting the row."""
        return _bits(self.geometry.rows_per_bank)

    @property
    def address_bits(self) -> int:
        """Total physical address width covered by the mapping."""
        return (
            self.offset_bits
            + self.channel_bits
            + self.col_bits
            + self.bank_bits
            + self.rank_bits
            + self.row_bits
        )

    def __post_init__(self) -> None:
        # decode() runs on every memory request: resolve its shift/mask
        # plan once. Not a dataclass field, so equality, hashing and
        # repr still see only the geometry.
        geo = self.geometry
        object.__setattr__(self, "_decode_plan", (
            geo.capacity_bytes,
            self.offset_bits,
            geo.channels - 1,
            self.channel_bits,
            geo.columns_per_row - 1,
            self.col_bits,
            geo.banks_per_rank - 1,
            self.bank_bits,
            geo.ranks_per_channel - 1,
            self.rank_bits,
            geo.rows_per_bank - 1,
        ))

    def decode(self, address: int) -> DramAddress:
        """Map a physical byte address to its DRAM coordinates.

        Raises :class:`ConfigError` for a negative address or one at or
        beyond the geometry's capacity, which would otherwise alias onto
        a low row.
        """
        (capacity, offset_bits, channel_mask, channel_bits, col_mask,
         col_bits, bank_mask, bank_bits, rank_mask, rank_bits,
         row_mask) = self._decode_plan
        if not 0 <= address < capacity:
            if address < 0:
                raise ConfigError(
                    f"address must be non-negative, got {address}"
                )
            raise ConfigError(
                f"address {address:#x} is beyond the {capacity:#x}-byte "
                "capacity"
            )
        value = address >> offset_bits
        channel = value & channel_mask
        value >>= channel_bits
        col = value & col_mask
        value >>= col_bits
        bank = value & bank_mask
        value >>= bank_bits
        rank = value & rank_mask
        value >>= rank_bits
        return DramAddress(channel, rank, bank, value & row_mask, col)

    def encode(self, location: DramAddress) -> int:
        """Map DRAM coordinates back to a physical byte address."""
        geo = self.geometry
        if not 0 <= location.channel < geo.channels:
            raise ConfigError(f"channel {location.channel} out of range")
        if not 0 <= location.rank < geo.ranks_per_channel:
            raise ConfigError(f"rank {location.rank} out of range")
        if not 0 <= location.bank < geo.banks_per_rank:
            raise ConfigError(f"bank {location.bank} out of range")
        if not 0 <= location.row < geo.rows_per_bank:
            raise ConfigError(f"row {location.row} out of range")
        if not 0 <= location.col < geo.columns_per_row:
            raise ConfigError(f"col {location.col} out of range")
        value = location.row
        value = (value << self.rank_bits) | location.rank
        value = (value << self.bank_bits) | location.bank
        value = (value << self.col_bits) | location.col
        value = (value << self.channel_bits) | location.channel
        return value << self.offset_bits
