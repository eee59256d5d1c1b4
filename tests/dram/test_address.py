"""Tests for physical-address interleaving."""

import pytest
from hypothesis import given, strategies as st

from repro.dram import AddressMapper, DramAddress, DramGeometry
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def mapper() -> AddressMapper:
    return AddressMapper(DramGeometry())


class TestDecode:
    def test_consecutive_lines_stripe_across_channels(self, mapper):
        """The default mapping interleaves cache lines channel-first."""
        line = mapper.geometry.line_size_bytes
        channels = [mapper.decode(i * line).channel for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_same_row_for_nearby_lines(self, mapper):
        """Lines within one channel's slice of a row share (bank, row)."""
        line = mapper.geometry.line_size_bytes
        first = mapper.decode(0)
        second = mapper.decode(4 * line)  # next line on channel 0
        assert (first.bank, first.row) == (second.bank, second.row)
        assert second.col == first.col + 1

    def test_row_bits_are_highest(self, mapper):
        low = mapper.decode(0)
        high = mapper.decode(1 << (mapper.address_bits - 1))
        assert low.row != high.row

    def test_negative_address_rejected(self, mapper):
        with pytest.raises(ConfigError):
            mapper.decode(-1)

    def test_address_beyond_capacity_rejected(self, mapper):
        """Decoding must not alias an out-of-range address onto low rows."""
        capacity = mapper.geometry.capacity_bytes
        assert mapper.decode(capacity - 1).row == mapper.geometry.rows_per_bank - 1
        with pytest.raises(ConfigError):
            mapper.decode(capacity)
        with pytest.raises(ConfigError):
            mapper.decode(capacity + 4 * mapper.geometry.line_size_bytes)


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=(1 << 34) - 1))
    def test_decode_encode_round_trip(self, address):
        """encode(decode(a)) recovers the line-aligned address."""
        mapper = AddressMapper(DramGeometry())
        line_aligned = address & ~(mapper.geometry.line_size_bytes - 1)
        assert mapper.encode(mapper.decode(address)) == line_aligned

    @given(
        channel=st.integers(0, 3),
        bank=st.integers(0, 7),
        row=st.integers(0, 65535),
        col=st.integers(0, 127),
    )
    def test_encode_decode_round_trip(self, channel, bank, row, col):
        mapper = AddressMapper(DramGeometry())
        location = DramAddress(channel=channel, rank=0, bank=bank, row=row, col=col)
        assert mapper.decode(mapper.encode(location)) == location

    def test_encode_rejects_out_of_range(self, mapper):
        with pytest.raises(ConfigError):
            mapper.encode(DramAddress(channel=4, rank=0, bank=0, row=0, col=0))
        with pytest.raises(ConfigError):
            mapper.encode(DramAddress(channel=0, rank=0, bank=0, row=1 << 16, col=0))


class TestCoverage:
    def test_address_bits_cover_capacity(self, mapper):
        assert 1 << mapper.address_bits == mapper.geometry.capacity_bytes

    @given(st.integers(min_value=0, max_value=(1 << 34) - 1))
    def test_decode_within_bounds(self, address):
        mapper = AddressMapper(DramGeometry())
        loc = mapper.decode(address)
        geo = mapper.geometry
        assert 0 <= loc.channel < geo.channels
        assert 0 <= loc.bank < geo.banks_per_rank
        assert 0 <= loc.row < geo.rows_per_bank
        assert 0 <= loc.col < geo.columns_per_row
