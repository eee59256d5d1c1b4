"""Vectorized pre-warm equivalence: the warm kernel vs a scalar oracle.

``System.prewarm`` simulates the LLC's exact-LRU automaton across all
sets in parallel and allocates page frames in bulk. Its contract is
state identity: after warming, the LLC set dicts (tags, dirty and
prefetched bits, LRU *key order*) and the virtual-memory state (page
table, allocator RNG position) must equal what the record-at-a-time
loop below leaves behind — that state seeds the timed run, so any
divergence would surface as a digest change downstream.
"""

import copy
import itertools

import pytest

from repro.cpu.cache import PREFETCHED
from repro.errors import ConfigError, SnapshotError
from repro.keying import code_fingerprint
from repro.sim.config import SystemConfig
from repro.sim.prewarm import _CHUNK_RECORDS
from repro.sim.system import System
from repro.snapshot import container, read_header, state_tree
from repro.trace.chunks import ChunkTrace
from repro.trace.stream import TraceStream
from repro.trace.workloads import workload


def _prewarm_scalar(system, accesses_per_core):
    """Reference warm loop: one translate + ``Llc.warm`` per record.

    Strict round-robin across cores by access index; a finite trace
    that runs dry is skipped while the others keep going.
    """
    line_mask = ~(system.llc.config.line_bytes - 1)
    traces = [core.trace for core in system.cores]
    live = list(range(len(traces)))
    for _ in range(accesses_per_core):
        for core in list(live):
            record = next(traces[core], None)
            if record is None:
                live.remove(core)
                continue
            line = system.vm.translate(core, record.vaddr) & line_mask
            system.llc.warm(line, record.is_write)
        if not live:
            break
    system.llc.reset_stats()


def build(workloads, seed, image=None, **extra):
    config = SystemConfig(cores=len(workloads), seed=seed, **extra)
    traces = [
        TraceStream(name, seed + core)
        for core, name in enumerate(workloads)
    ]
    return System(config, traces, warm_image=image)


def warmed_pair(workloads, seed, accesses):
    """(oracle-warmed, kernel-warmed) systems over identical inputs."""
    oracle = build(workloads, seed)
    _prewarm_scalar(oracle, accesses)
    kernel = build(workloads, seed)
    kernel.prewarm(accesses)
    return oracle, kernel


def assert_same_state(oracle, kernel):
    """Every LLC and VM field, and each LLC set's LRU key order."""
    assert state_tree(kernel.llc) == state_tree(oracle.llc)
    assert [list(entries.items()) for entries in kernel.llc._sets] == [
        list(entries.items()) for entries in oracle.llc._sets
    ]
    assert state_tree(kernel.vm) == state_tree(oracle.vm)


WORKLOAD_CASES = [
    (("libq",), 1),
    (("random",), 7),
    (("mcf",), 3),
    (("omnetpp",), 11),
    (("libq", "mcf"), 5),
    (("libq", "mcf", "stream-copy", "milc"), 2),
]


class TestWarmStateEquivalence:
    @pytest.mark.parametrize("workloads,seed", WORKLOAD_CASES)
    def test_llc_and_vm_state_identical(self, workloads, seed):
        oracle, kernel = warmed_pair(workloads, seed, 30_000)
        assert_same_state(oracle, kernel)
        # Trace positions must agree too — the timed phase continues
        # from exactly where pre-warm stopped consuming.
        assert_same_trace_positions(oracle, kernel)

    def test_lru_key_order_is_preserved(self):
        """Snapshot byte-identity depends on dict insertion order, not
        just set membership: keys must be LRU-first."""
        oracle, kernel = warmed_pair(("random",), 13, 50_000)
        for os_, ks in zip(oracle.llc._sets, kernel.llc._sets):
            assert list(ks.items()) == list(os_.items())

    def test_chunk_boundary_invariance(self):
        """Warm counts straddling the kernel chunk size hit the
        multi-chunk path; state must still match the oracle."""
        chunk = _CHUNK_RECORDS
        for accesses in (chunk - 1, chunk, chunk + 1, 2 * chunk + 7):
            assert_same_state(*warmed_pair(("libq",), 1, accesses))

    def test_stats_reset_after_warm(self):
        system = build(("libq",), 1)
        system.prewarm(20_000)
        assert system.llc.hits == 0
        assert system.llc.misses == 0
        assert system.llc.writebacks == 0

    def test_double_prewarm_matches_scalar(self):
        """A second warm starts from a populated LLC: the kernel seeds
        its LRU state from the live sets and continues from there."""
        oracle, kernel = warmed_pair(("libq",), 1, 10_000)
        _prewarm_scalar(oracle, 10_000)
        kernel.prewarm(10_000)
        assert_same_state(oracle, kernel)

    def test_warm_hit_clears_prefetched_bit(self):
        """Prefetched lines already resident keep their bit until a warm
        access touches them, exactly as ``Llc.warm`` clears it."""
        systems = []
        for _ in range(2):
            system = build(("mcf",), 3)
            system.prewarm(5_000)
            for entries in system.llc._sets[::3]:
                for tag, flags in entries.items():
                    entries[tag] = flags | PREFETCHED
            systems.append(system)
        oracle, kernel = systems
        _prewarm_scalar(oracle, 20_000)
        kernel.prewarm(20_000)
        assert_same_state(oracle, kernel)
        assert any(
            flags & PREFETCHED
            for entries in kernel.llc._sets
            for flags in entries.values()
        )

    @pytest.mark.parametrize("cores", [1, 3])
    def test_finite_chunk_traces(self, cores):
        """Finite ChunkTraces, the last one running dry mid-chunk (both
        the trace's own chunk and the kernel's), land on the oracle's
        state: the kernel's ragged-tail interleave skips the exhausted
        stream and keeps going."""
        names = ("libq", "random", "mcf")[:cores]

        def finite(name, seed, records):
            source = workload(name).trace(seed)
            chunks = []
            while records > 0:
                chunks.append(source.take_columns(min(1000, records)))
                records -= 1000
            return ChunkTrace(iter(chunks))

        def traces():
            return [
                finite(name, 5 + core, 7_050 if core == cores - 1 else 20_000)
                for core, name in enumerate(names)
            ]

        config = SystemConfig(cores=cores, seed=5)
        oracle = System(config, traces())
        _prewarm_scalar(oracle, 12_000)
        kernel = System(config, traces())
        kernel.prewarm(12_000)
        assert_same_state(oracle, kernel)

    @pytest.mark.parametrize("cores", [1, 3])
    def test_plain_iterator_traces(self, cores):
        """Pre-warm reads columns: a plain record iterator (here the last
        core's) has no array view and is a ConfigError naming its core,
        raised before any trace is read."""
        names = ("libq", "random", "mcf")[:cores]
        traces = [workload(name).trace(5 + core)
                  for core, name in enumerate(names)]
        records = list(itertools.islice(traces[-1], 100))
        traces[-1] = iter(records)
        system = System(SystemConfig(cores=cores, seed=5), traces)
        with pytest.raises(ConfigError, match=f"core {cores - 1}"):
            system.prewarm(1_000)
        assert list(traces[-1]) == records
        for core, trace in enumerate(traces[:-1]):
            assert next(trace) == next(workload(names[core]).trace(5 + core))


def assert_same_trace_positions(a, b):
    """Each core's stream has read as many records as its counterpart
    and yields the same records next (read from copies, so the systems'
    own streams do not move)."""
    for ac, bc in zip(a.cores, b.cores, strict=True):
        assert ac.trace.consumed == bc.trace.consumed
        ahead = copy.deepcopy(ac.trace), copy.deepcopy(bc.trace)
        assert list(itertools.islice(ahead[0], 1500)) == list(
            itertools.islice(ahead[1], 1500)
        )


def assert_same_warm_state(a, b):
    assert_same_state(a, b)
    assert_same_trace_positions(a, b)


class TestWarmImage:
    """A system built with a warm-image path computes and writes the
    image once; the next system with that path adopts it, landing on
    exactly the state the kernel computed."""

    @pytest.mark.parametrize("workloads,seed", WORKLOAD_CASES)
    def test_adopted_state_equals_computed(self, workloads, seed, tmp_path):
        image = tmp_path / "w.warm"
        computed = build(workloads, seed, image)
        computed.prewarm(30_000)
        assert image.is_file()
        # A mechanism variant adopts the mechanism-invariant state.
        adopted = build(workloads, seed, image, mechanism="crow-cache")
        adopted.prewarm(30_000)
        assert_same_warm_state(computed, adopted)
        plain = build(workloads, seed)
        plain.prewarm(30_000)
        assert_same_warm_state(plain, adopted)
        assert adopted.llc.hits == adopted.llc.misses == 0
        assert sorted(tmp_path.iterdir()) == [image]  # no tmp droppings

    @pytest.mark.parametrize(
        "workloads,seed,accesses,extra",
        [
            (("libq",), 7, 30_000, dict(llc_size_bytes=4 << 20)),
            (("libq",), 8, 30_000, {}),
            (("mcf",), 7, 30_000, {}),
            (("libq",), 7, 20_000, {}),
        ],
        ids=["warm-digest", "seed", "workloads", "access-count"],
    )
    def test_incompatible_image_raises(
        self, workloads, seed, accesses, extra, tmp_path
    ):
        image = tmp_path / "w.warm"
        build(("libq",), 7, image).prewarm(30_000)
        system = build(workloads, seed, image, **extra)
        with pytest.raises(ConfigError, match="other inputs"):
            system.prewarm(accesses)

    @pytest.mark.parametrize("keep", [0, 5, 0.5])
    def test_torn_image_is_recomputed_and_rewritten(self, keep, tmp_path):
        image = tmp_path / "w.warm"
        build(("mcf",), 3, image).prewarm(30_000)
        whole = image.read_bytes()
        cut = int(len(whole) * keep) if isinstance(keep, float) else keep
        image.write_bytes(whole[:cut])
        system = build(("mcf",), 3, image)
        system.prewarm(30_000)
        plain = build(("mcf",), 3)
        plain.prewarm(30_000)
        assert_same_warm_state(plain, system)
        assert image.read_bytes() == whole

    def test_image_written_by_other_code_is_recomputed_and_rewritten(
        self, tmp_path, monkeypatch
    ):
        """An image stamped with another code fingerprint reads as
        missing: the state is computed and the image rewritten."""
        image = tmp_path / "w.warm"
        build(("mcf",), 3, image).prewarm(30_000)
        current = image.read_bytes()
        monkeypatch.setattr(container, "code_fingerprint", lambda: "f" * 20)
        build(("mcf",), 3, image).prewarm(30_000)
        monkeypatch.undo()
        assert image.read_bytes() != current
        system = build(("mcf",), 3, image)
        system.prewarm(30_000)
        plain = build(("mcf",), 3)
        plain.prewarm(30_000)
        assert_same_warm_state(plain, system)
        assert image.read_bytes() == current
        assert read_header(image)["code_fingerprint"] == code_fingerprint()

    def test_image_needs_unread_trace_streams(self, tmp_path):
        system = build(("libq",), 1, tmp_path / "w.warm")
        system.prewarm(1_000)
        with pytest.raises(SnapshotError):
            system.prewarm(1_000)
        plain = System(
            SystemConfig(), [workload("libq").trace(1)],
            warm_image=tmp_path / "x.warm",
        )
        with pytest.raises(SnapshotError):
            plain.prewarm(1_000)
