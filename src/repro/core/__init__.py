"""CROW core: the paper's primary contribution.

* :mod:`repro.core.table` — the CROW-table, the set-associative structure
  in the memory controller that tracks which regular row each copy row
  duplicates or replaces (paper Section 3.3).
* :mod:`repro.core.cache` — CROW-cache, the in-DRAM caching mechanism that
  duplicates recently-activated rows and activates pairs with ``ACT-t``
  (Section 4.1).
* :mod:`repro.core.ref` — CROW-ref, the weak-row remapping scheme that
  extends the refresh interval (Section 4.2).
* :mod:`repro.core.rowhammer` — the RowHammer mitigation that remaps victim
  rows of detected aggressors (Section 4.3).
* :mod:`repro.core.combined` — CROW-cache and CROW-ref operating together
  on one copy-row pool (Section 8.3).
* :mod:`repro.core.analytics` — the paper's closed-form overhead and
  weak-row probability models (Eqs. 1-4, Sections 4.2.1 and 6.1).
"""

from repro.core.table import CrowTable, CrowEntry, EntryOwner
from repro.core.cache import CrowCache
from repro.core.ref import CrowRef
from repro.core.rowhammer import RowHammerMitigation
from repro.core.combined import CrowCacheRef
from repro.core.analytics import (
    crow_table_entry_bits,
    crow_table_storage_bits,
    crow_table_storage_kib,
    p_subarray_exceeds,
    p_weak_row,
)

__all__ = [
    "CrowTable",
    "CrowEntry",
    "EntryOwner",
    "CrowCache",
    "CrowRef",
    "RowHammerMitigation",
    "CrowCacheRef",
    "crow_table_entry_bits",
    "crow_table_storage_bits",
    "crow_table_storage_kib",
    "p_subarray_exceeds",
    "p_weak_row",
]
