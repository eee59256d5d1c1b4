"""CLR-DRAM: dynamic capacity–latency reconfigurable rows.

Models CLR-DRAM (Luo et al., related work): a pair of adjacent rows can
be *coupled* into a single max-latency-mode row whose doubled cell
capacitance and doubled sense-amplifier drive cut activation and
restoration latency dramatically, at the cost of the neighbour's
capacity. This plugin couples row pairs adaptively: a row that keeps
getting activated earns coupling (its pair neighbour is sacrificed);
touching the sacrificed neighbour demotes the pair back to capacity
mode.

The mode switch is visible on the command stream as an activation-timing
override, so :class:`ClrInvariant` can mirror the promotion/demotion
automaton on the shadow checker and verify every fast activation targets
a row the observed history actually promoted.
"""

from __future__ import annotations

from repro.check.invariants import CheckerInvariant
from repro.controller.mechanism import ActivationPlan, Mechanism
from repro.dram.commands import ActTimings, CommandKind, RowKind
from repro.dram.timing import TimingParameters, scale_cycles
from repro.errors import ConfigError
from repro.mech.plugin import BuildContext, MechanismPlugin
from repro.mech.registry import register_mechanism

__all__ = ["ClrDram", "ClrInvariant"]

#: Latency scaling in max-latency (coupled) mode, per the CLR-DRAM
#: paper's SPICE results: tRCD -60%, tRAS -64%, tWR -35%.
TRCD_FACTOR = 0.40
TRAS_FACTOR = 0.36
TWR_FACTOR = 0.65

#: Full-latency activations before a row couples its pair.
PROMOTE_THRESHOLD = 4


def fast_timings(timing: TimingParameters) -> ActTimings:
    """The activation timing set for a coupled (max-latency-mode) row.

    ``tras_early == tras_full``: a coupled activation always restores
    fully, so precharge must never mark the row partially restored.
    """
    tras = scale_cycles(timing.tras, TRAS_FACTOR)
    return ActTimings(
        trcd=scale_cycles(timing.trcd, TRCD_FACTOR),
        tras_full=tras,
        tras_early=tras,
        twr=scale_cycles(timing.twr, TWR_FACTOR),
    )


class ClrDram(Mechanism):
    """Adaptive row-pair coupling for capacity–latency reconfiguration."""

    name = "clr-dram"
    telemetry_namespace = "clr_dram"

    def __init__(
        self,
        geometry,
        timing: TimingParameters,
        promote_threshold: int = PROMOTE_THRESHOLD,
    ) -> None:
        super().__init__(geometry, timing)
        if promote_threshold < 1:
            raise ConfigError("promote_threshold must be >= 1")
        if geometry.rows_per_subarray < 2:
            raise ConfigError("clr-dram needs >= 2 rows per subarray")
        self.promote_threshold = promote_threshold
        self._fast = fast_timings(timing)
        #: (bank, pair_index) -> owning bank_row. The pair partner
        #: (owner ^ 1) is sacrificed while the entry exists. Pair index
        #: is bank_row >> 1; rows_per_subarray is a power of two >= 2,
        #: so a pair never straddles a subarray boundary.
        self.coupled: dict[tuple[int, int], int] = {}
        #: (bank, bank_row) -> full-latency activations since the last
        #: couple/demote touching the pair.
        self.counters: dict[tuple[int, int], int] = {}
        self.fast_acts = 0
        self.promotions = 0
        self.demotions = 0

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def plan_activation(self, bank: int, row: int, now: int) -> ActivationPlan:
        regular = self.service_row(bank, row)
        if self.coupled.get((bank, row >> 1)) == row:
            return ActivationPlan(
                kind=CommandKind.ACT, rows=(regular,), timings=self._fast
            )
        return ActivationPlan(kind=CommandKind.ACT, rows=(regular,))

    def timing_variants(self) -> dict[str, ActTimings]:
        return {"act-coupled": self._fast}

    def on_activate(self, bank: int, plan: ActivationPlan, now: int) -> None:
        if plan.timings is self._fast:
            self.fast_acts += 1
            return
        row = plan.rows[0]
        if row.kind is not RowKind.REGULAR:
            return
        bank_row = row.bank_row(self.geometry.rows_per_subarray)
        pair = (bank, bank_row >> 1)
        owner = self.coupled.get(pair)
        if owner is not None:
            if owner != bank_row:
                # Demand for the sacrificed partner: decouple the pair
                # (its data must live in capacity mode again).
                del self.coupled[pair]
                self.counters.pop((bank, owner), None)
                self.counters.pop((bank, bank_row), None)
                self.demotions += 1
            # owner == bank_row with full timings only happens in the
            # same scheduling pass that promoted it; nothing to count.
            return
        key = (bank, bank_row)
        count = self.counters.get(key, 0) + 1
        if count >= self.promote_threshold:
            self.coupled[pair] = bank_row
            self.counters.pop(key, None)
            self.counters.pop((bank, bank_row ^ 1), None)
            self.promotions += 1
        else:
            self.counters[key] = count

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        return {
            "clr_fast_acts": float(self.fast_acts),
            "clr_promotions": float(self.promotions),
            "clr_demotions": float(self.demotions),
            "clr_coupled_pairs": float(len(self.coupled)),
        }

    def reset_stats(self) -> None:
        self.fast_acts = 0
        self.promotions = 0
        self.demotions = 0


class ClrInvariant(CheckerInvariant):
    """Shadow mirror of the CLR-DRAM coupling automaton.

    Replays promotion/demotion from the observed full-latency ACTs and
    checks every timing-overridden activation: the override must be
    exactly the CLR fast set, and its target must currently own its
    coupled pair. CLR-DRAM runs have no copy rows, so every ACT carrying
    a timing override in the stream is a CLR fast activation.
    """

    name = "clr-dram"

    def __init__(self, geometry, timing: TimingParameters, threshold: int):
        self.geometry = geometry
        self.threshold = threshold
        self._fast = fast_timings(timing)
        self._coupled: dict[tuple[int, int], int] = {}
        self._counters: dict[tuple[int, int], int] = {}

    def on_command(self, checker, now, command) -> None:
        if command.kind is not CommandKind.ACT:
            return
        row = command.rows[0]
        if row.kind is not RowKind.REGULAR:
            return
        bank_row = row.bank_row(self.geometry.rows_per_subarray)
        bank = command.bank
        pair = (bank, bank_row >> 1)
        timings = command.timings
        if timings is not None:
            expected = self._fast
            if (
                timings.trcd != expected.trcd
                or timings.tras_full != expected.tras_full
                or timings.tras_early != expected.tras_early
                or timings.twr != expected.twr
            ):
                checker.violate(
                    now, bank, "clr-timing-override", "ACT",
                    message=(
                        f"activation timing override {timings} does not "
                        f"match the CLR-DRAM max-latency-mode set "
                        f"{expected}"
                    ),
                )
            if self._coupled.get(pair) != bank_row:
                checker.violate(
                    now, bank, "clr-fast-act-uncoupled", "ACT",
                    message=(
                        f"fast activation of row {bank_row} in bank "
                        f"{bank}, but the observed stream never promoted "
                        f"it (pair owner: {self._coupled.get(pair)})"
                    ),
                )
            return
        owner = self._coupled.get(pair)
        if owner is not None:
            if owner != bank_row:
                del self._coupled[pair]
                self._counters.pop((bank, owner), None)
                self._counters.pop((bank, bank_row), None)
            return
        key = (bank, bank_row)
        count = self._counters.get(key, 0) + 1
        if count >= self.threshold:
            self._coupled[pair] = bank_row
            self._counters.pop(key, None)
            self._counters.pop((bank, bank_row ^ 1), None)
        else:
            self._counters[key] = count


@register_mechanism("clr-dram")
class ClrDramPlugin(MechanismPlugin):
    """CLR-DRAM: adaptive capacity–latency row-pair coupling."""

    def build(self, ctx: BuildContext):
        return ClrDram(ctx.geometry, ctx.timing)

    def geometry_overrides(self, config) -> dict:
        return {"copy_rows_per_subarray": 0}

    def checker_invariant(self, config, geometry, timing):
        return ClrInvariant(geometry, timing, threshold=PROMOTE_THRESHOLD)
