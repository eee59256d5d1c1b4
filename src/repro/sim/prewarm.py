"""Functional LLC pre-warm: the vectorized warm kernel.

:meth:`System.prewarm <repro.sim.system.System.prewarm>` stands in for
the paper's 100M-instruction cache warm-up (Section 7): the first ``n``
records of every core's trace go through translation and the LLC,
round-robin across cores by access index, with no timing. The kernel
here leaves behind exactly the state that record-at-a-time loop
(``Llc.warm`` after ``VirtualMemory.translate``) would:

* **Columns, not records.** Traces hand over whole ``(vaddr,
  is_write)`` column arrays (:meth:`TraceStream.take_arrays`); a trace
  without that array view is a :class:`~repro.errors.ConfigError`.
* **Bulk translation.** One ``np.unique`` per chunk finds the distinct
  pages; missing frames are allocated in first-touch order
  (:meth:`VirtualMemory.bulk_map`), so the allocator RNG stream matches
  per-access translation draw for draw.
* **All sets in parallel.** The LLC's exact-LRU automaton runs as a
  ``(sets, ways)`` tag matrix, LRU column first
  (:meth:`Llc.lru_matrices <repro.cpu.cache.Llc.lru_matrices>`).
  Accesses are grouped per set with a stable sort, and round ``r``
  applies the ``r``-th access of every set that has one. A few hot sets
  left over finish with plain list operations.
* **Loaded back.** :meth:`Llc.load_matrices
  <repro.cpu.cache.Llc.load_matrices>` turns the final matrices into
  the LLC's sets in LRU-first key order, which snapshots and warm
  images depend on. Each way's flags byte becomes the line's value as
  it is: the LLC keeps its lines in the same encoding.

The state matrices start from the LLC's current contents, so warming
twice continues from the first warm. Each way carries the LLC's flags
byte: the :data:`~repro.cpu.cache.DIRTY` bit and the prefetched bit,
which a warm hit clears (as :meth:`Llc.warm` does).

The matrices live only inside the kernel. A warm image pickles what the
kernel leaves behind, the ``Llc``, the ``VirtualMemory`` and the trace
streams, as :meth:`System.prewarm` holds them.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.cache import DIRTY
from repro.cpu.translation import ASID_SHIFT, PAGE_MASK, PAGE_SHIFT
from repro.errors import ConfigError

__all__ = ["warm_llc"]

#: Interleaved records (all cores together) per kernel chunk. The chunk
#: bounds the kernel's int64 temporaries, and with them its share of the
#: process's peak memory; larger chunks only amortize per-chunk numpy
#: dispatch a little further.
_CHUNK_RECORDS = 32768

#: When this few sets still have accesses left in a chunk, the LRU
#: kernel finishes them with per-set Python loops instead of paying a
#: full vector round's fixed cost per access. Hot-set workloads (libq)
#: concentrate hundreds of accesses on a handful of sets; without the
#: tail the round count — and with it the number of numpy dispatches —
#: scales with the hottest set's access count.
_SCALAR_TAIL_SETS = 96


def warm_llc(llc, vm, traces: list, accesses_per_core: int) -> None:
    """Warm ``llc`` and ``vm`` with the next records of every trace.

    ``traces[i]`` is core ``i``'s trace (address space ``i``). Reads up
    to ``accesses_per_core`` records per trace, fewer where a finite
    trace runs dry, and resets the LLC statistics afterwards.
    """
    for core, trace in enumerate(traces):
        if not hasattr(trace, "take_arrays"):
            raise ConfigError(
                f"core {core}'s trace ({type(trace).__name__}) has no "
                "take_arrays view; prewarm reads a ChunkTrace or a "
                "TraceStream over one"
            )
    offset_bits = llc._offset_bits
    index_mask = llc._index_mask
    index_bits = llc._index_bits
    # Page-offset bits that survive into the line base address.
    line_offset_mask = PAGE_MASK & ~(llc.config.line_bytes - 1)
    bases = [core << ASID_SHIFT for core in range(len(traces))]
    per_core = max(1, _CHUNK_RECORDS // len(traces))

    tag_state, flag_state = llc.lru_matrices()
    remaining = accesses_per_core
    while remaining > 0:
        n = min(per_core, remaining)
        remaining -= n
        batches = [trace.take_arrays(n) for trace in traces]
        if not any(len(vaddrs) for vaddrs, _ in batches):
            break
        vaddrs, writes, keys = _interleave(batches, bases, n)

        # Translation: one page-table probe per distinct page, with
        # missing frames allocated in first-touch order.
        uniq, first_index, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        del keys
        touch_order = np.argsort(first_index, kind="stable")
        frames = np.empty(len(uniq), dtype=np.int64)
        frames[touch_order] = vm.bulk_map(uniq[touch_order].tolist())
        line_ids = (
            (frames[inverse] << PAGE_SHIFT) | (vaddrs & line_offset_mask)
        ) >> offset_bits
        del uniq, first_index, inverse, touch_order, frames, vaddrs
        _apply_chunk(
            tag_state,
            flag_state,
            line_ids & index_mask,
            line_ids >> index_bits,
            writes.astype(np.int8),
        )
    llc.load_matrices(tag_state, flag_state)
    llc.reset_stats()


def _interleave(batches, bases, n):
    """Merge per-core columns round-robin by access index.

    That is the order the warm loop replays in, which fixes both the
    LRU state and the frame-allocation sequence. Returns the merged
    vaddrs, writes and page-table keys.
    """
    lengths = [len(vaddrs) for vaddrs, _ in batches]
    if len(batches) == 1:
        vaddrs, writes = batches[0]
        return vaddrs, writes, bases[0] | (vaddrs >> PAGE_SHIFT)
    if all(length == n for length in lengths):
        vaddrs = np.stack([v for v, _ in batches], axis=1).ravel()
        writes = np.stack([w for _, w in batches], axis=1).ravel()
        keys = (vaddrs >> PAGE_SHIFT) | np.tile(
            np.asarray(bases, dtype=np.int64), n
        )
        return vaddrs, writes, keys
    # Ragged tail: some (finite) trace ran dry mid-chunk. Sorting by
    # (access index, core) skips exhausted streams and keeps going.
    n_cores = len(batches)
    order = np.argsort(
        np.concatenate(
            [
                np.arange(length) * n_cores + core
                for core, length in enumerate(lengths)
            ]
        ),
        kind="stable",
    )
    vaddrs = np.concatenate([v for v, _ in batches])[order]
    writes = np.concatenate([w for _, w in batches])[order]
    keys = (vaddrs >> PAGE_SHIFT) | np.concatenate(
        [
            np.full(length, base, dtype=np.int64)
            for base, length in zip(bases, lengths)
        ]
    )[order]
    return vaddrs, writes, keys


def _apply_chunk(tag_state, flag_state, set_idx, tags, writes) -> None:
    """Apply one chunk of accesses to the LRU state, in order per set.

    A hit keeps the dirty bit (or sets it on a write) and clears the
    prefetched bit; a miss fills with the write bit alone.
    """
    n_sets, ways = tag_state.shape
    col = np.arange(ways)
    order = np.argsort(set_idx, kind="stable")
    counts = np.bincount(set_idx, minlength=n_sets)
    starts = np.cumsum(counts) - counts
    max_rounds = int(counts.max())
    r = 0
    while r < max_rounds:
        active = np.nonzero(counts > r)[0]
        if len(active) <= _SCALAR_TAIL_SETS:
            # Tail: few sets left — replay each set's remaining accesses
            # with plain list ops (sets are mutually independent, so
            # per-set completion order doesn't matter).
            for s in active.tolist():
                pos = order[starts[s] + r : starts[s] + counts[s]]
                row = tag_state[s].tolist()
                frow = flag_state[s].tolist()
                for tag, write in zip(
                    tags[pos].tolist(), writes[pos].tolist()
                ):
                    try:
                        w = row.index(tag)
                    except ValueError:
                        w = 0
                        flags = write
                    else:
                        flags = (frow[w] & DIRTY) | write
                    del row[w]
                    del frow[w]
                    row.append(tag)
                    frow.append(flags)
                tag_state[s] = row
                flag_state[s] = frow
            break
        pos = order[starts[active] + r]
        tag = tags[pos]
        write = writes[pos]
        rows = tag_state[active]
        # Unified hit/miss transition: remove column p (the matched way
        # on a hit; column 0 — empty way or LRU victim — on a miss,
        # where argmax of the all-False match row is already 0), close
        # the gap, insert at MRU.
        p = (rows == tag[:, None]).argmax(axis=1)
        ar = np.arange(len(active))
        hit = rows[ar, p] == tag
        gather = np.where(col < p[:, None], col, col + 1)
        gather[:, ways - 1] = p
        old_flags = flag_state[active]
        touched = old_flags[ar, p]
        ar = ar[:, None]
        new_rows = rows[ar, gather]
        new_flags = old_flags[ar, gather]
        new_rows[:, ways - 1] = tag
        new_flags[:, ways - 1] = np.where(
            hit, (touched & DIRTY) | write, write
        )
        tag_state[active] = new_rows
        flag_state[active] = new_flags
        r += 1
