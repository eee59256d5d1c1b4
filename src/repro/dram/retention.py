"""Per-row DRAM retention model with weak-row injection.

The paper builds CROW-ref on two empirical facts from retention studies
(Liu et al. [64, 65], Patel et al. [87]): (1) only a tiny fraction of cells
fail when the refresh interval is extended (a bit error rate around 4e-9 at
256 ms), and (2) weak cells are distributed uniformly at random. This
module implements exactly that generative model:

* :func:`bit_error_rate` scales the published BER anchor across intervals,
* :class:`RetentionModel` lazily samples, per subarray, which regular and
  copy rows are *weak* at a target refresh interval, deterministically from
  a seed, in either ``sampled`` mode (Eq. 1 statistics) or ``fixed`` mode
  (exactly *k* weak rows per subarray — the paper's pessimistic Figure 13
  assumption of three).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.errors import ConfigError

__all__ = ["bit_error_rate", "RetentionModel"]

#: Published anchor: BER of ~4e-9 when refreshing every 256 ms [65].
BER_ANCHOR = 4e-9
BER_ANCHOR_INTERVAL_MS = 256.0
#: Retention-failure steepness: halving the interval cuts the error rate
#: by roughly an order of magnitude in experimental data.
BER_EXPONENT = 3.5


#: Retention roughly halves per +10 °C (the classic DRAM leakage rule of
#: thumb); profiling is specified at the worst-case temperature.
RETENTION_TEMPERATURE_ANCHOR_C = 85.0
RETENTION_HALVING_C = 10.0


def bit_error_rate(interval_ms: float, temperature_c: float = 85.0) -> float:
    """Probability that a given cell fails at ``interval_ms`` refresh.

    Power-law scaling of the 256 ms anchor (the steep exponent reflects
    the experimentally-observed sharp drop in failures at shorter
    intervals), with the Arrhenius-style rule of thumb that retention
    halves per +10 °C: profiling at a *lower* temperature than worst case
    under-reports weak cells (why profilers test at aggressive
    conditions — REAPER [87]).
    """
    if interval_ms <= 0:
        raise ConfigError("interval_ms must be positive")
    # Hotter chip => same wall-clock interval stresses cells as if it
    # were proportionally longer at the anchor temperature.
    scale = 2.0 ** (
        (temperature_c - RETENTION_TEMPERATURE_ANCHOR_C) / RETENTION_HALVING_C
    )
    effective_ms = interval_ms * scale
    return BER_ANCHOR * (effective_ms / BER_ANCHOR_INTERVAL_MS) ** BER_EXPONENT


class RetentionModel:
    """Deterministic weak-row oracle for the whole memory system.

    Parameters
    ----------
    geometry:
        Memory organization (rows per subarray, copy rows, ...).
    target_interval_ms:
        The extended refresh interval CROW-ref wants to run at; rows that
        cannot retain data for this long are *weak*.
    weak_rows_per_subarray:
        ``None`` samples weak rows from the BER statistics ("sampled"
        mode); an integer plants exactly that many weak regular rows in
        every subarray ("fixed" mode, the paper's Figure 13 assumption).
    seed:
        Master seed; every subarray derives its own stream, so queries are
        reproducible and order-independent.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        target_interval_ms: float = 128.0,
        weak_rows_per_subarray: int | None = None,
        seed: int = 1,
    ) -> None:
        if target_interval_ms <= 0:
            raise ConfigError("target_interval_ms must be positive")
        if weak_rows_per_subarray is not None and not (
            0 <= weak_rows_per_subarray <= geometry.rows_per_subarray
        ):
            raise ConfigError("weak_rows_per_subarray out of range")
        self.geometry = geometry
        self.target_interval_ms = target_interval_ms
        self.weak_rows_per_subarray = weak_rows_per_subarray
        self.seed = seed
        self._cache: dict[tuple[int, int, int], tuple[frozenset[int], frozenset[int]]] = {}

    # ------------------------------------------------------------------
    # Statistics (paper Section 4.2.1)
    # ------------------------------------------------------------------
    @property
    def weak_row_probability(self) -> float:
        """Eq. 1: probability a row has at least one weak cell."""
        cells_per_row = self.geometry.row_size_bytes * 8
        ber = bit_error_rate(self.target_interval_ms)
        return 1.0 - (1.0 - ber) ** cells_per_row

    # ------------------------------------------------------------------
    # Weak-row queries
    # ------------------------------------------------------------------
    def _subarray_sets(
        self, channel: int, bank: int, subarray: int
    ) -> tuple[frozenset[int], frozenset[int]]:
        key = (channel, bank, subarray)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        rng = np.random.default_rng(
            (self.seed, channel, bank, subarray, 0xC0DE)
        )
        rows = self.geometry.rows_per_subarray
        copies = self.geometry.copy_rows_per_subarray
        if self.weak_rows_per_subarray is None:
            p_weak = self.weak_row_probability
            n_weak = int(rng.binomial(rows, p_weak))
            n_weak_copy = int(rng.binomial(copies, p_weak)) if copies else 0
        else:
            n_weak = self.weak_rows_per_subarray
            # Copy rows are far fewer, so in fixed mode they stay strong
            # unless sampling says otherwise; weak copy rows are exercised
            # explicitly in tests via sampled mode.
            n_weak_copy = 0
        weak = frozenset(
            int(i) for i in rng.choice(rows, size=n_weak, replace=False)
        ) if n_weak else frozenset()
        weak_copy = frozenset(
            int(i) for i in rng.choice(copies, size=n_weak_copy, replace=False)
        ) if n_weak_copy else frozenset()
        result = (weak, weak_copy)
        self._cache[key] = result
        return result

    def weak_regular_rows(
        self, channel: int, bank: int, subarray: int
    ) -> frozenset[int]:
        """Local indices of weak regular rows in one subarray."""
        return self._subarray_sets(channel, bank, subarray)[0]

    def weak_copy_rows(
        self, channel: int, bank: int, subarray: int
    ) -> frozenset[int]:
        """Local indices of weak copy rows in one subarray."""
        return self._subarray_sets(channel, bank, subarray)[1]

    def weak_set_digest(self, channels: int | None = None) -> str:
        """Content digest of every weak regular/copy row set (16 hex).

        Canonical text form — sorted indices per subarray, subarrays in
        (channel, bank, subarray) order — hashed with sha256, so two
        processes (or two machines) agree byte-for-byte exactly when
        their models sample identical weak sets. The probe weak-row
        routine and the cross-process determinism tests both rely on
        this being stable for a given (geometry, target, mode, seed).
        """
        channels = self.geometry.channels if channels is None else channels
        digest = hashlib.sha256()
        for channel in range(channels):
            for bank in range(self.geometry.banks_per_channel):
                for subarray in range(self.geometry.subarrays_per_bank):
                    regular, copy = self._subarray_sets(
                        channel, bank, subarray
                    )
                    digest.update(
                        f"{channel}/{bank}/{subarray}:"
                        f"{sorted(regular)}|{sorted(copy)}\n".encode()
                    )
        return digest.hexdigest()[:16]

    def row_retention_ms(
        self,
        channel: int,
        bank: int,
        subarray: int,
        index: int,
        is_copy: bool = False,
        base_retention_ms: float = 64.0,
    ) -> float:
        """Retention time of one fully-restored row.

        Strong rows comfortably exceed the target interval; weak rows fall
        somewhere between the base window and the target interval (they
        are safe at the standard rate but fail at the extended one).
        """
        weak_set = (
            self.weak_copy_rows(channel, bank, subarray)
            if is_copy
            else self.weak_regular_rows(channel, bank, subarray)
        )
        rng = np.random.default_rng(
            (self.seed, channel, bank, subarray, index, int(is_copy), 0xFADE)
        )
        if index in weak_set:
            low = base_retention_ms
            high = max(low + 1e-3, self.target_interval_ms * 0.999)
            return float(rng.uniform(low, high))
        return float(self.target_interval_ms * rng.uniform(4.0, 16.0))
