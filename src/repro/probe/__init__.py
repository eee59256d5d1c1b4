"""X-ray-style DRAM structure inference via raw command probing.

The probe subsystem recovers a device's geometry, timing parameters,
CROW copy-row configuration, duplicate map and weak-row set from
*observed behaviour alone* — crafted command sequences on a SoftMC-like
raw host (:class:`ProbeSession`), with the generating config consulted
only by the verification oracle (:meth:`InferredProfile.verify_against`).

Layers:

* :mod:`repro.probe.session` — the raw host: cycle-accurate command
  issue, sandboxed attempts, observable outcomes, strict conformance
  shadowing, retention experiments, command-budget telemetry.
* :mod:`repro.probe.routines` — the inference library: address-decode
  boundary searches, minimum-gap timing searches, copy-decoder echo and
  SALP interference for subarray geometry, retention scans, and the
  in-service-slot duplicate map; :func:`discover` orchestrates them.
* :mod:`repro.probe.infer` — :class:`InferredProfile` (per-parameter
  confidence classes) and the structured ground-truth diff.

The subsystem is a tier-1 oracle for the device model: ``tests/probe``
probes small devices blind and requires every recovered timing, the
copy-row geometry, the weak-row set and the CROW duplicate map to match
the generating config.
"""

from repro.probe.infer import (
    InferredProfile,
    InferredValue,
    ParameterDiff,
    VerifyReport,
    ground_truth,
)
from repro.probe.routines import discover
from repro.probe.session import ProbeOutcome, ProbeSession

__all__ = [
    "ProbeOutcome",
    "ProbeSession",
    "InferredProfile",
    "InferredValue",
    "ParameterDiff",
    "VerifyReport",
    "ground_truth",
    "discover",
]
