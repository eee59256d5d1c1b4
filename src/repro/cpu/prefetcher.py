"""Reference-prediction-table (RPT) stride prefetcher [31].

Used for the Figure 12 experiment (CROW-cache composed with prefetching).
Each table entry tracks the last address and stride observed for one
program counter; after the stride is confirmed twice the entry enters the
steady state and prefetches ``degree`` lines ahead.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError

__all__ = ["RptPrefetcher"]

_INIT, _TRANSIENT, _STEADY = 0, 1, 2


class RptPrefetcher:
    """Stride prefetcher keyed by program counter."""

    def __init__(
        self,
        entries: int = 64,
        degree: int = 2,
        line_bytes: int = 64,
    ) -> None:
        if entries < 1 or degree < 1:
            raise ConfigError("entries and degree must be >= 1")
        self.entries = entries
        self.degree = degree
        self.line_bytes = line_bytes
        # pc -> [last_addr, stride, state]; ordered for LRU replacement.
        self._table: OrderedDict[int, list] = OrderedDict()
        self.issued = 0
        self.useful = 0

    def observe(self, pc: int, address: int) -> list[int]:
        """Record a demand access; return line addresses to prefetch."""
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.entries:
                self._table.popitem(last=False)
            self._table[pc] = [address, 0, _INIT]
            return []
        self._table.move_to_end(pc)
        last_addr, stride, state = entry
        new_stride = address - last_addr
        if state == _INIT:
            entry[:] = [address, new_stride, _TRANSIENT]
            return []
        if new_stride == stride and stride != 0:
            entry[:] = [address, stride, _STEADY]
            prefetches = [
                (address + stride * (i + 1)) & ~(self.line_bytes - 1)
                for i in range(self.degree)
            ]
            unique = []
            for target in prefetches:
                if target >= 0 and target not in unique:
                    unique.append(target)
            self.issued += len(unique)
            return unique
        entry[:] = [address, new_stride, _TRANSIENT]
        return []

    def accuracy(self) -> float:
        """Useful prefetches over issued prefetches."""
        return self.useful / self.issued if self.issued else 0.0

    def reset_stats(self) -> None:
        """Zero statistics at the warm-up boundary."""
        self.issued = 0
        self.useful = 0
