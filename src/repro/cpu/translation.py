"""Virtual-to-physical translation with random frame allocation.

The paper (Section 7) translates trace virtual addresses by randomly
allocating a 4 KiB physical frame on first touch of each virtual page,
emulating the fragmented allocation of a steady-state system [85]. Random
placement matters: it spreads each application's pages over banks and
subarrays, which determines how many CROW copy rows are contended.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError, ConfigError

__all__ = ["VirtualMemory", "PAGE_BYTES", "PAGE_SHIFT", "ASID_SHIFT"]

PAGE_BYTES = 4096
PAGE_SHIFT = 12
PAGE_MASK = PAGE_BYTES - 1
#: Address-space id field offset in the integer page-table key; virtual
#: page numbers stay below this for any realistic trace footprint.
#: Public so the pre-warm kernel can build page-table keys in bulk
#: (:meth:`VirtualMemory.bulk_map`).
ASID_SHIFT = 52
_PAGE_SHIFT = PAGE_SHIFT
_PAGE_MASK = PAGE_MASK
_ASID_SHIFT = ASID_SHIFT


class VirtualMemory:
    """Per-system page table with random first-touch frame allocation."""

    def __init__(self, capacity_bytes: int, seed: int = 1) -> None:
        if capacity_bytes < PAGE_BYTES:
            raise ConfigError("capacity must hold at least one page")
        self.total_frames = capacity_bytes // PAGE_BYTES
        # Keyed by (asid << _ASID_SHIFT) | vpage: a flat int key keeps the
        # hot translate() path free of per-call tuple allocation.
        self._page_table: dict[int, int] = {}
        self._used_frames: set[int] = set()
        self._rng = np.random.default_rng(seed)

    def translate(self, asid: int, vaddr: int) -> int:
        """Translate a virtual address in address space ``asid``."""
        key = (asid << _ASID_SHIFT) | (vaddr >> _PAGE_SHIFT)
        frame = self._page_table.get(key)
        if frame is None:
            frame = self._allocate_frame()
            self._page_table[key] = frame
        return (frame << _PAGE_SHIFT) | (vaddr & _PAGE_MASK)

    def bulk_map(self, keys: "list[int]") -> "list[int]":
        """Frames for page-table keys, allocating the missing ones.

        ``keys`` are ``(asid << ASID_SHIFT) | vpage`` integers in
        *first-touch order*: missing pages allocate one frame each, in
        list order, drawing from the allocator RNG exactly as the same
        sequence of :meth:`translate` calls would. The vectorized
        pre-warm relies on that draw-for-draw equivalence to leave the
        state per-access translation would.

        Allocation draws are batched: one ``integers(n, size=k)`` call
        consumes the bit stream word-for-word like ``k`` scalar calls,
        so the batch holds every allocation's *first* draw; collision
        retries pop the next queued value (the value the scalar loop's
        retry would draw), and only draws beyond the batch fall back to
        scalar — total consumption matches the scalar loop exactly.
        """
        table = self._page_table
        frames = [table.get(key) for key in keys]
        missing = [i for i, frame in enumerate(frames) if frame is None]
        if not missing:
            return frames
        used = self._used_frames
        total = self.total_frames
        if (
            len(used) + len(missing) > total
            or len({keys[i] for i in missing}) != len(missing)
        ):
            # Mid-way capacity exhaustion or duplicate first-touches:
            # both need the scalar loop's interleaved allocate/lookup
            # semantics, and neither can size an exact batch up front.
            for i in missing:
                key = keys[i]
                frame = table.get(key)
                if frame is None:
                    frame = self._allocate_frame()
                    table[key] = frame
                frames[i] = frame
            return frames
        draws = iter(self._rng.integers(total, size=len(missing)).tolist())
        add = used.add
        for i in missing:
            while True:
                frame = next(draws, None)
                if frame is None:
                    # Collisions pushed consumption past the batch; the
                    # remaining draws continue scalar, in stream order.
                    frame = self._allocate_frame()
                    break
                if frame not in used:
                    add(frame)
                    break
            table[keys[i]] = frame
            frames[i] = frame
        return frames

    def _allocate_frame(self) -> int:
        if len(self._used_frames) >= self.total_frames:
            raise CapacityError("physical memory exhausted")
        while True:
            frame = int(self._rng.integers(self.total_frames))
            if frame not in self._used_frames:
                self._used_frames.add(frame)
                return frame
