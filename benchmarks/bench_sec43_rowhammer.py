"""Section 4.3: the CROW RowHammer mitigation (extension experiment).

The paper proposes, but leaves unevaluated ("we leave the evaluation ...
to future work"), a RowHammer defense that remaps the victim rows adjacent
to a detected aggressor onto copy rows. This benchmark supplies that
evaluation on the reproduction stack:

* **protection** — with the functional cell array injecting real
  disturbance flips, a hammered aggressor corrupts its neighbours' data in
  the unprotected system but not in the served data of the mitigated one;
* **overhead** — on benign workloads the detector never fires, so the
  mitigation's performance cost is ~zero.
"""

import numpy as np

from repro import SystemConfig, run_workload
from repro.controller import ChannelController, MemRequest, RequestType
from repro.core import RowHammerMitigation
from repro.dram import (
    AddressMapper,
    CellArray,
    DramChannel,
    DramGeometry,
    TimingParameters,
)
from repro.dram.address import DramAddress
from repro.dram.commands import RowId

from _harness import INSTRUCTIONS, WARMUP, report

GEO = DramGeometry(rows_per_bank=4096, channels=1)
TIMING = TimingParameters.lpddr4()
MAPPER = AddressMapper(GEO)
PATTERN = 0xA5A5A5A5A5A5A5A5
AGGRESSOR, VICTIMS = 100, (99, 101)


def _attack(mitigated: bool):
    cells = CellArray(GEO, clock_mhz=TIMING.clock_mhz, hammer_threshold=40)
    channel = DramChannel(GEO, TIMING, cell_array=cells)
    mechanism = (
        RowHammerMitigation(GEO, TIMING, hammer_threshold=20)
        if mitigated else None
    )
    controller = ChannelController(channel, mechanism=mechanism,
                                   refresh_enabled=False)
    for victim in VICTIMS:
        cells.set_row_data(
            0, RowId.regular(victim, GEO.rows_per_subarray), PATTERN
        )
    address = MAPPER.encode(
        DramAddress(channel=0, rank=0, bank=0, row=AGGRESSOR, col=0)
    )
    now = 0
    for _ in range(120):
        controller.enqueue(
            MemRequest(RequestType.READ, address, MAPPER.decode(address)), now
        )
        while controller.pending_requests:
            now = max(controller.tick(now), now + 1)
        for _ in range(300):
            if not channel.banks[0].is_open:
                break
            now = max(controller.tick(now), now + 1)
    corrupted = 0
    for victim in VICTIMS:
        row = (
            controller.mechanism.service_row(0, victim)
            if mitigated
            else RowId.regular(victim, GEO.rows_per_subarray)
        )
        corrupted += int(
            np.count_nonzero(cells.row_data(0, row) != np.uint64(PATTERN)) > 0
        )
    return cells.disturbance_flips, corrupted


def _run():
    flips_plain, corrupted_plain = _attack(mitigated=False)
    flips_guarded, corrupted_guarded = _attack(mitigated=True)
    base = run_workload(
        "h264-dec", SystemConfig(),
        instructions=INSTRUCTIONS, warmup_instructions=WARMUP,
    )
    guarded = run_workload(
        "h264-dec", SystemConfig(mechanism="crow-hammer",
                                 hammer_threshold=2000),
        instructions=INSTRUCTIONS, warmup_instructions=WARMUP,
    )
    overhead = guarded.speedup_over(base)
    rows = [
        ["physical flips (attack, unprotected)", str(flips_plain)],
        ["victims serving corrupt data (unprotected)",
         f"{corrupted_plain}/2"],
        ["physical flips (attack, mitigated)", str(flips_guarded)],
        ["victims serving corrupt data (mitigated)",
         f"{corrupted_guarded}/2"],
        ["benign-workload speedup under mitigation", f"{overhead:.3f}"],
    ]
    report(
        "sec43_rowhammer",
        "Section 4.3 — CROW RowHammer mitigation (extension evaluation)",
        ["quantity", "value"],
        rows,
        notes=[
            "the paper proposes this mechanism but leaves its evaluation "
            "to future work; functional cell array injects disturbance "
            "flips after 40 activations in a refresh window",
        ],
    )
    return corrupted_plain, corrupted_guarded, overhead


def test_sec43_rowhammer(benchmark):
    corrupted_plain, corrupted_guarded, overhead = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    assert corrupted_plain == 2        # the attack works when unprotected
    assert corrupted_guarded == 0      # remapped victims stay intact
    assert 0.99 < overhead < 1.02      # ~free for benign workloads
