"""Inferred device profiles and the ground-truth verdict.

:class:`InferredProfile` is what :func:`~repro.probe.routines.discover`
produces: one :class:`InferredValue` per device parameter, each carrying
the inferred value, a confidence class and a short provenance note, plus
the weak-row map and the CROW duplicate map the routines extracted.
:meth:`InferredProfile.verify_against` is the oracle step — it rebuilds
the ground truth from the generating :class:`~repro.sim.config.
SystemConfig` through the same :mod:`repro.sim.factory` path the device
was built with and diffs every probed parameter into a structured
:class:`VerifyReport`.

Confidence classes:

``exact``
    The observed behaviour pins the parameter to one value.
``derived``
    Computed from other measurements (e.g. tRC = tRAS + tRP, or the
    tCL/tCWL/tBL decomposition from latency observables).
``bound``
    The behaviour only bounds the parameter (e.g. tFAW is unobservable
    below ``4*tRRD`` — the probe reports the *effective* window).
``protocol``
    Follows observations through a documented protocol convention (the
    CROW-ref boot allocation order for the duplicate map).
``unobservable``
    No behaviour distinguishes the parameter on this device; the value
    is ``None`` and verification skips it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim import factory
from repro.sim.config import SystemConfig

__all__ = [
    "InferredValue",
    "InferredProfile",
    "ParameterDiff",
    "VerifyReport",
    "ground_truth",
]

CONFIDENCES = ("exact", "derived", "bound", "protocol", "unobservable")


@dataclass(frozen=True)
class InferredValue:
    """One inferred device parameter."""

    name: str
    value: "int | bool | None"
    confidence: str
    note: str = ""


@dataclass
class InferredProfile:
    """Everything a probe run inferred about one channel."""

    channel: int = 0
    parameters: "dict[str, InferredValue]" = field(default_factory=dict)
    #: Probed bank -> sorted bank-level weak regular row numbers.
    weak_rows: "dict[int, list[int]]" = field(default_factory=dict)
    #: Boot-time duplicate map entries: (bank, subarray, slot, bank_row).
    #: ``bank_row`` is ``None`` for a slot observed in service whose
    #: source could not be attributed.
    duplicate_map: "list[tuple[int, int, int, int | None]]" = field(
        default_factory=list
    )
    #: False when the scan could not run (e.g. no conformance
    #: observable on a CROW device); verification then skips the map.
    duplicate_map_observed: bool = True
    #: Banks the weak-row / duplicate-map scans covered.
    probed_banks: "list[int]" = field(default_factory=list)
    #: Refresh interval (ms) the weak-row experiments asked about.
    retention_interval_ms: "float | None" = None

    def add(
        self,
        name: str,
        value: "int | bool | None",
        confidence: str,
        note: str = "",
    ) -> None:
        assert confidence in CONFIDENCES, confidence
        self.parameters[name] = InferredValue(name, value, confidence, note)

    def value(self, name: str) -> "int | bool | None":
        entry = self.parameters.get(name)
        return entry.value if entry is not None else None

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    def verify_against(
        self, config: SystemConfig, channel: "int | None" = None
    ) -> "VerifyReport":
        """Diff this profile against the config that built the device."""
        channel = self.channel if channel is None else channel
        truth = ground_truth(config, channel)
        report = VerifyReport()
        for name, entry in self.parameters.items():
            if entry.confidence == "unobservable" or entry.value is None:
                report.diffs.append(ParameterDiff(
                    name, None, truth["parameters"].get(name),
                    "skipped", entry.confidence, entry.note,
                ))
                continue
            if name not in truth["parameters"]:
                report.diffs.append(ParameterDiff(
                    name, entry.value, None, "skipped", entry.confidence,
                    "no ground-truth counterpart",
                ))
                continue
            actual = truth["parameters"][name]
            status = "match" if entry.value == actual else "mismatch"
            report.diffs.append(ParameterDiff(
                name, entry.value, actual, status, entry.confidence,
                entry.note,
            ))
        self._verify_weak_rows(truth, report)
        self._verify_duplicate_map(truth, report)
        return report

    def _verify_weak_rows(self, truth: dict, report: "VerifyReport") -> None:
        for bank in self.probed_banks:
            inferred = self.weak_rows.get(bank, [])
            actual = truth["weak_rows"].get(bank, [])
            status = "match" if inferred == actual else "mismatch"
            report.diffs.append(ParameterDiff(
                f"weak_rows[bank {bank}]", inferred, actual, status,
                "exact", "retention write/wait/read scan",
            ))

    def _verify_duplicate_map(
        self, truth: dict, report: "VerifyReport"
    ) -> None:
        if not self.duplicate_map_observed:
            report.diffs.append(ParameterDiff(
                "duplicate_map", None, None, "skipped", "unobservable",
                "duplicate-map scan did not run",
            ))
            return
        probed = set(self.probed_banks)
        inferred = sorted(
            entry for entry in self.duplicate_map if entry[0] in probed
        )
        actual = sorted(
            entry for entry in truth["duplicate_map"] if entry[0] in probed
        )
        status = "match" if inferred == actual else "mismatch"
        report.diffs.append(ParameterDiff(
            "duplicate_map", [list(e) for e in inferred],
            [list(e) for e in actual], status, "protocol",
            "in-service copy slots zipped with sorted weak rows",
        ))


@dataclass(frozen=True)
class ParameterDiff:
    """One inferred-vs-actual comparison."""

    name: str
    inferred: object
    actual: object
    status: str  # "match" | "mismatch" | "skipped"
    confidence: str = ""
    note: str = ""


@dataclass
class VerifyReport:
    """Structured verdict of one profile against its generating config."""

    diffs: "list[ParameterDiff]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(diff.status == "mismatch" for diff in self.diffs)

    @property
    def matched(self) -> int:
        return sum(1 for diff in self.diffs if diff.status == "match")

    @property
    def mismatched(self) -> "list[ParameterDiff]":
        return [diff for diff in self.diffs if diff.status == "mismatch"]

    @property
    def skipped(self) -> int:
        return sum(1 for diff in self.diffs if diff.status == "skipped")

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.matched} parameter(s) verified, "
                f"{self.skipped} unobservable/skipped — profile matches"
            )
        head = self.mismatched[0]
        return (
            f"{len(self.mismatched)} mismatch(es) out of "
            f"{len(self.diffs)} comparisons; first: {head.name} "
            f"inferred {head.inferred!r} != actual {head.actual!r}"
        )


def ground_truth(config: SystemConfig, channel: int = 0) -> dict:
    """The oracle: parameters the generating config actually implies.

    Built through the same :mod:`repro.sim.factory` calls as both
    :class:`~repro.sim.system.System` and the probe session's device, so
    a ``match`` verdict means the probe recovered the real construction,
    not a parallel reimplementation of it.
    """
    geometry = config.resolved_geometry()
    base = factory.base_timing(config)
    crow = factory.build_crow_timings(config, geometry, base)
    retention = factory.build_retention(config, geometry)
    mechanism = factory.build_mechanism(
        config, geometry, base, crow, retention, channel
    )
    timing = factory.final_timing(base, [mechanism])
    if retention is None:
        retention = factory.retention_model(config, geometry)
    parameters: dict = {
        "banks": geometry.banks_per_channel,
        "rows_per_bank": geometry.rows_per_bank,
        "rows_per_subarray": geometry.rows_per_subarray,
        "subarrays_per_bank": geometry.subarrays_per_bank,
        "copy_rows_per_subarray": geometry.copy_rows_per_subarray,
        "trcd": timing.trcd,
        "tras": timing.tras,
        "trp": timing.trp,
        "trc": timing.trc,
        "trrd": timing.trrd,
        # tFAW is behaviourally masked by 4*tRRD when smaller; the probe
        # reports the effective four-activate window.
        "tfaw_effective": max(timing.tfaw, 4 * timing.trrd),
        "tccd": timing.tccd,
        "trtp": timing.trtp,
        "twr": timing.twr,
        "twtr": timing.twtr,
        "trfc": timing.trfc,
        "tcl": timing.tcl,
        "tcwl": timing.tcwl,
        "tbl": timing.tbl,
        "read_latency": timing.tcl + timing.tbl,
        "write_latency": timing.tcwl + timing.tbl,
    }
    if crow is not None:
        parameters.update({
            "trcd_act_c": crow.trcd_act_c,
            "tras_act_c_full": crow.tras_act_c_full,
            "tras_act_c_early": crow.tras_act_c_early,
            "trcd_act_t_full": crow.trcd_act_t_full,
            "trcd_act_t_partial": crow.trcd_act_t_partial,
            "tras_act_t_full": crow.tras_act_t_full,
            "tras_act_t_early": crow.tras_act_t_early,
            "tras_act_t_partial_early": crow.tras_act_t_partial_early,
            "partial_restore_signature": True,
        })
    weak_rows: dict[int, list[int]] = {}
    extended = timing.refresh_window_ms > config.refresh_window_ms
    for bank, row in factory.weak_row_set(
        # The *observable* weak set is physics, not mechanism: always
        # derived from the unconditional retention model.
        retention, geometry, channel
    ):
        weak_rows.setdefault(bank, []).append(row)
    for rows in weak_rows.values():
        rows.sort()
    duplicate_map: list[tuple[int, int, int, "int | None"]] = []
    for component in (
        mechanism,
        getattr(mechanism, "ref", None),
        getattr(mechanism, "hammer", None),
    ):
        remap = getattr(component, "remap", None)
        if isinstance(remap, dict):
            for (bank, bank_row), copy in remap.items():
                duplicate_map.append(
                    (bank, copy.subarray, copy.index, bank_row)
                )
    duplicate_map.sort()
    return {
        "parameters": parameters,
        "weak_rows": weak_rows,
        "duplicate_map": duplicate_map,
        "extended_refresh": extended,
    }
