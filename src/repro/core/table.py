"""The CROW-table: copy-row bookkeeping in the memory controller.

One table per DRAM channel (paper Section 3.3). The table is *n*-way
set-associative where *n* is the number of copy rows per subarray; a set is
indexed by (bank, subarray) — or by (bank, subarray group) when the
storage-optimised sharing mode of Section 6.1 is enabled — and way *w*
corresponds to copy row *w* of the subarray.

Each entry stores the fields the paper names: ``Allocated``,
``RegularRowID`` (a pointer to the duplicated/remapped regular row within
the subarray) and ``Special``. ``Special`` is modelled structurally as the
:class:`EntryOwner` tag (cache / ref / hammer) plus the CROW-cache
``isFullyRestored`` bit.
"""

from __future__ import annotations

import enum

from repro.dram.geometry import DramGeometry
from repro.errors import CapacityError, ConfigError

__all__ = ["EntryOwner", "CrowEntry", "CrowTable"]


class EntryOwner(enum.IntEnum):
    """Which mechanism a copy row is currently allocated to."""

    NONE = 0        # free
    CACHE = 1       # CROW-cache duplicate
    REF = 2         # CROW-ref weak-row remap (pinned)
    HAMMER = 3      # RowHammer victim remap (pinned)
    UNUSABLE = 4    # the copy row itself is retention-weak


class CrowEntry:
    """One CROW-table entry (tracks one copy row)."""

    __slots__ = (
        "subarray",
        "way",
        "allocated",
        "regular_row",
        "owner",
        "is_fully_restored",
        "last_use",
    )

    def __init__(self, subarray: int, way: int) -> None:
        self.subarray = subarray
        self.way = way
        self.allocated = False
        self.regular_row = -1
        self.owner = EntryOwner.NONE
        self.is_fully_restored = True
        self.last_use = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrowEntry(sa={self.subarray}, way={self.way}, "
            f"alloc={self.allocated}, row={self.regular_row}, "
            f"owner={self.owner.name}, full={self.is_fully_restored})"
        )


class CrowTable:
    """Per-channel CROW-table.

    Parameters
    ----------
    geometry:
        Memory organization; sizes the sets and ways.
    subarray_group_size:
        Section 6.1 storage optimisation: share one set of entries across
        this many subarrays (1 = dedicated entries per subarray). With
        sharing, at most ``ways`` copy rows can be in use across the whole
        group at once.
    """

    def __init__(self, geometry: DramGeometry, subarray_group_size: int = 1) -> None:
        if subarray_group_size < 1:
            raise ConfigError("subarray_group_size must be >= 1")
        if geometry.subarrays_per_bank % subarray_group_size:
            raise ConfigError(
                "subarray_group_size must divide the subarray count"
            )
        self.geometry = geometry
        self.group_size = subarray_group_size
        self.ways = geometry.copy_rows_per_subarray
        groups_per_bank = geometry.subarrays_per_bank // subarray_group_size
        # Sets materialize lazily on first access: a full table is banks
        # × groups × ways entries (tens of thousands), and short runs
        # touch a small fraction of the subarrays. ``None`` stands for a
        # set whose entries are all still in the freshly-constructed
        # state.
        self._sets: list[list[list[CrowEntry] | None]] = [
            [None] * groups_per_bank
            for _ in range(geometry.banks_per_channel)
        ]

    # ------------------------------------------------------------------
    # Set access
    # ------------------------------------------------------------------
    def entries(self, bank: int, subarray: int) -> list[CrowEntry]:
        """The set of entries governing ``subarray`` of ``bank``."""
        group = subarray // self.group_size
        entries = self._sets[bank][group]
        if entries is None:
            entries = [
                CrowEntry(subarray=-1, way=w) for w in range(self.ways)
            ]
            self._sets[bank][group] = entries
        return entries

    def lookup(
        self, bank: int, subarray: int, regular_row: int
    ) -> CrowEntry | None:
        """Find the allocated entry duplicating/remapping ``regular_row``."""
        for entry in self.entries(bank, subarray):
            if (
                entry.allocated
                and entry.subarray == subarray
                and entry.regular_row == regular_row
            ):
                return entry
        return None

    def entry_for_copy_row(
        self, bank: int, subarray: int, way: int
    ) -> CrowEntry:
        """The entry that tracks copy row ``way`` of ``subarray``."""
        if not 0 <= way < self.ways:
            raise ConfigError(f"way {way} out of range")
        return self.entries(bank, subarray)[way]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def free_entry(self, bank: int, subarray: int) -> CrowEntry | None:
        """An unallocated entry in the set, if any."""
        for entry in self.entries(bank, subarray):
            if not entry.allocated:
                return entry
        return None

    def lru_entry(
        self,
        bank: int,
        subarray: int,
        owner: EntryOwner,
        require_restored: bool = False,
    ) -> CrowEntry | None:
        """Least-recently-used allocated entry owned by ``owner``.

        With ``require_restored`` only fully-restored entries qualify —
        used by CROW-cache to prefer victims that can be evicted without
        an extra restore activation (Section 4.1.4).
        """
        candidates = [
            entry
            for entry in self.entries(bank, subarray)
            if entry.allocated
            and entry.owner is owner
            and (entry.is_fully_restored or not require_restored)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda entry: entry.last_use)

    def allocate(
        self,
        bank: int,
        subarray: int,
        regular_row: int,
        owner: EntryOwner,
        now: int,
        entry: CrowEntry | None = None,
    ) -> CrowEntry:
        """Bind an entry (a copy row) to ``regular_row``.

        Raises :class:`CapacityError` when the set has no free entry and
        the caller did not provide a victim.
        """
        if entry is None:
            entry = self.free_entry(bank, subarray)
        if entry is None:
            raise CapacityError(
                f"no free copy row in bank {bank} subarray {subarray}"
            )
        entry.subarray = subarray
        entry.allocated = True
        entry.regular_row = regular_row
        entry.owner = owner
        entry.is_fully_restored = False
        entry.last_use = now
        return entry

    def mark_unusable(self, bank: int, subarray: int, way: int) -> None:
        """Retire a retention-weak copy row from service (footnote 5)."""
        entry = self.entry_for_copy_row(bank, subarray, way)
        entry.allocated = True
        entry.subarray = subarray
        entry.regular_row = -1
        entry.owner = EntryOwner.UNUSABLE
        entry.is_fully_restored = True

    # ------------------------------------------------------------------
    # Statistics / overhead accounting
    # ------------------------------------------------------------------
    def allocated_count(self, owner: EntryOwner | None = None) -> int:
        """Number of allocated entries (optionally per owner)."""
        total = 0
        for bank_sets in self._sets:
            for entries in bank_sets:
                if entries is None:
                    continue
                for entry in entries:
                    if entry.allocated and (owner is None or entry.owner is owner):
                        total += 1
        return total

    def storage_bits(self, special_bits: int = 1) -> int:
        """Eq. 4 storage for this table's actual configuration."""
        from repro.core.analytics import crow_table_storage_bits

        subarrays = (
            self.geometry.banks_per_channel
            * self.geometry.subarrays_per_bank
            // self.group_size
        )
        return crow_table_storage_bits(
            self.geometry.rows_per_subarray,
            self.ways,
            subarrays,
            special_bits,
        )
