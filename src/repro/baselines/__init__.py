"""Baseline and comparison mechanisms (paper Section 8.1.4, Figure 11).

* :mod:`repro.baselines.tldram` — Tiered-Latency DRAM [58]: a fast near
  segment per subarray used as an MRU cache of far-segment rows.
* :mod:`repro.baselines.salp` — SALP-MASA [53]: subarray-level parallelism
  with per-subarray row buffers (timeout or open-page policies).
* :mod:`repro.baselines.chargecache` — ChargeCache [26]: reduced-latency
  re-activation of recently-precharged (highly-charged) rows.
* :mod:`repro.baselines.ideal` — the paper's *Ideal CROW-cache* (100%
  CROW-table hit rate) bound used in Figures 8 and 14; the ``ideal``
  mechanism runs it with refresh disabled (the Figure 14 combined bound).
"""

from repro.baselines.tldram import TlDram
from repro.baselines.salp import SalpMasa
from repro.baselines.chargecache import ChargeCache
from repro.baselines.ideal import IdealCrowCache

__all__ = [
    "TlDram",
    "SalpMasa",
    "ChargeCache",
    "IdealCrowCache",
]
