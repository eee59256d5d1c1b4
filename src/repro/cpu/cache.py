"""Shared last-level cache model.

Table 2 configuration: 8 MiB, 8-way set associative, 64 B lines, LRU,
write-back / write-allocate. The model is allocate-on-access (the line is
installed when the miss is issued; data arrives later through the core's
MSHR bookkeeping), the standard simplification for trace-driven DRAM
studies — miss *counts* and writeback traffic are exact, and those are
what drive the memory system.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.units import MIB

__all__ = ["CacheConfig", "Llc", "DIRTY", "PREFETCHED"]

#: Line-state bits. A resident line's value is the OR of the bits that
#: hold for it, an int in ``{0, 1, 2, 3}``.
DIRTY = 1
PREFETCHED = 2

#: Sets loaded per block by :meth:`Llc.load_matrices`: bounds the
#: Python-list temporaries of the conversion from the matrices.
_MATERIALIZE_SETS = 2048


class CacheConfig:
    """LLC geometry and latency."""

    def __init__(
        self,
        size_bytes: int = 8 * MIB,
        ways: int = 8,
        line_bytes: int = 64,
        hit_latency: int = 8,
    ) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ConfigError("cache parameters must be positive")
        if size_bytes % (ways * line_bytes):
            raise ConfigError("cache size must divide into whole sets")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.sets = size_bytes // (ways * line_bytes)
        if self.sets & (self.sets - 1):
            raise ConfigError("set count must be a power of two")


class Llc:
    """Set-associative write-back LLC shared by all cores.

    Each set is a dict mapping tag -> flags, exploiting insertion order
    for LRU: the most recently used tag sits at the end, the victim is
    the first key. The flags are the line's state as one small int,
    :data:`DIRTY` and :data:`PREFETCHED` bits (the pre-warm kernel's
    flags byte), so a line costs a dict slot and no object of its own.
    Every hot operation (probe, LRU bump, victim pick) is a C-level
    dict operation instead of a Python list scan, with the exact same
    hit/miss/eviction sequence as an MRU list.
    """

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config if config is not None else CacheConfig()
        # Per set: {tag: flags}, LRU first / MRU last.
        self._sets: list[dict[int, int]] = [
            {} for _ in range(self.config.sets)
        ]
        self._offset_bits = self.config.line_bytes.bit_length() - 1
        self._index_mask = self.config.sets - 1
        self._index_bits = self._index_mask.bit_length()
        self._ways = self.config.ways
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.prefetch_fills = 0

    def _locate(self, address: int) -> tuple[dict[int, int], int]:
        line = address >> self._offset_bits
        return self._sets[line & self._index_mask], line >> self._index_bits

    def access(
        self, address: int, is_write: bool
    ) -> tuple[bool, int | None, bool]:
        """Access one line; returns (hit, writeback_address, was_prefetched).

        On a miss the line is allocated immediately (write-allocate); a
        dirty eviction returns the physical address to write back.
        ``was_prefetched`` reports whether a hit consumed a prefetched
        line for the first time (prefetcher usefulness accounting).
        """
        line = address >> self._offset_bits
        entries = self._sets[line & self._index_mask]
        tag = line >> self._index_bits
        flags = entries.pop(tag, None)
        if flags is not None:
            # Re-insert at MRU (dict end); insertion order is the LRU
            # stack. A write sets the dirty bit; the prefetched bit clears.
            entries[tag] = DIRTY if is_write else flags & DIRTY
            self.hits += 1
            return True, None, flags >= PREFETCHED  # the high bit
        self.misses += 1
        # Miss fill, inlined (a second set/tag decode would be the
        # hottest redundant work in warm-up-heavy runs).
        writeback = None
        if len(entries) >= self._ways:
            victim_tag = next(iter(entries))
            if entries.pop(victim_tag) & DIRTY:
                self.writebacks += 1
                victim_line = (victim_tag << self._index_bits) | (
                    line & self._index_mask
                )
                writeback = victim_line << self._offset_bits
        entries[tag] = DIRTY if is_write else 0
        return False, writeback, False

    def warm(self, address: int, is_write: bool) -> None:
        """Functional-warming access: identical state transitions to
        :meth:`access`, minus statistics and writeback reporting (warm-up
        callers reset statistics afterwards and drop the writeback).
        """
        line = address >> self._offset_bits
        entries = self._sets[line & self._index_mask]
        tag = line >> self._index_bits
        flags = entries.pop(tag, None)
        if flags is not None:
            entries[tag] = DIRTY if is_write else flags & DIRTY
            return
        if len(entries) >= self._ways:
            del entries[next(iter(entries))]
        entries[tag] = DIRTY if is_write else 0

    def fill_prefetch(self, address: int) -> int | None:
        """Install a prefetched line (clean); returns any writeback."""
        entries, tag = self._locate(address)
        if tag in entries:
            return None
        self.prefetch_fills += 1
        writeback = self.peek_victim(address)
        if writeback is not None:
            self.writebacks += 1
        if len(entries) >= self._ways:
            del entries[next(iter(entries))]
        entries[tag] = PREFETCHED
        return writeback

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident."""
        entries, tag = self._locate(address)
        return tag in entries

    def peek_victim(self, address: int) -> int | None:
        """Dirty-victim address a fill of ``address`` would evict, if
        any, without changing the LLC (the port's stall decision)."""
        entries, _tag = self._locate(address)
        if len(entries) < self._ways:
            return None
        victim_tag = next(iter(entries))  # LRU sits first in the set dict
        if not entries[victim_tag] & DIRTY:
            return None
        set_index = (address >> self._offset_bits) & self._index_mask
        victim_line = (victim_tag << self._index_bits) | set_index
        return victim_line << self._offset_bits

    # ------------------------------------------------------------------
    # Matrix form (the pre-warm kernel's state)
    # ------------------------------------------------------------------
    def lru_matrices(self) -> "tuple[np.ndarray, np.ndarray]":
        """The contents as ``(sets, ways)`` (tag, flags) matrices, LRU
        column first.

        ``-1`` marks an empty way. Empty ways sit at the *left*, so a
        miss always evicts (or fills) column 0.
        """
        ways = self._ways
        tag_state = np.full((self.config.sets, ways), -1, dtype=np.int64)
        flag_state = np.zeros((self.config.sets, ways), dtype=np.int8)
        for s, entries in enumerate(self._sets):
            if entries:
                first = ways - len(entries)
                tag_state[s, first:] = list(entries)
                flag_state[s, first:] = list(entries.values())
        return tag_state, flag_state

    def load_matrices(self, tag_state, flag_state) -> None:
        """Replace the contents with :meth:`lru_matrices`-shaped state.

        The pre-warm kernel calls this as its last step; snapshots and
        warm images pickle the set dicts themselves. Sets convert in
        blocks of :data:`_MATERIALIZE_SETS`, and only the valid ways are
        visited (a lightly warmed LLC is mostly empty). Boolean-mask
        indexing is row-major, so per set the columns come out left to
        right: the LRU-first key order. ``tolist()`` yields plain Python
        ints, the flags among them cached small ones.
        """
        sets: list[dict[int, int]] = []
        for lo in range(0, len(tag_state), _MATERIALIZE_SETS):
            tags = tag_state[lo : lo + _MATERIALIZE_SETS]
            valid = tags >= 0
            block: list[dict[int, int]] = [{} for _ in range(len(tags))]
            for s, tag, flags in zip(
                np.nonzero(valid)[0].tolist(),
                tags[valid].tolist(),
                flag_state[lo : lo + _MATERIALIZE_SETS][valid].tolist(),
            ):
                block[s][tag] = flags
            sets.extend(block)
        self._sets = sets

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        """Total demand accesses (hits + misses)."""
        return self.hits + self.misses

    def miss_rate(self) -> float:
        """Demand misses over demand accesses."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        """Zero statistics at the warm-up boundary."""
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.prefetch_fills = 0
