"""Headline telemetry summaries for journals.

A full telemetry export is large (every counter, histogram bucket and
epoch sample in the system). A journal wants the opposite: a few
headline fields plus the content digest that fingerprints the rest.
:func:`headline_summary` is that projection, used by
:class:`~repro.exec.parallel.ParallelCampaign` for the
``task_telemetry`` journal event.
"""

from __future__ import annotations

__all__ = ["headline_summary"]


def headline_summary(result) -> "dict | None":
    """Digest + headline fields of a result's telemetry export.

    Returns ``None`` for results that carry no telemetry (the summary is
    meaningless without an export to fingerprint). All values are plain
    JSON scalars, deterministic for identical (config, seed) runs.
    """
    export = getattr(result, "telemetry", None)
    if export is None:
        return None
    fields: dict = {"telemetry_digest": result.telemetry_digest()}
    channels = export.get("controller", {})
    if channels:
        hits = sum(c["row_hits"]["value"] for c in channels.values())
        accesses = hits + sum(
            c["row_misses"]["value"] + c["row_conflicts"]["value"]
            for c in channels.values()
        )
        fields["reads_served"] = sum(
            c["reads_served"]["value"] for c in channels.values()
        )
        fields["row_hit_rate"] = (
            round(hits / accesses, 6) if accesses else None
        )
    crow = export.get("crow", {})
    if "hit_rate" in crow:
        fields["crow_hit_rate"] = crow["hit_rate"]["value"]
        fields["crow_restore_fraction"] = (
            crow["restore_fraction"]["value"]
        )
    return fields
