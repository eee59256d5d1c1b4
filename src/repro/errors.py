"""Exception hierarchy for the CROW reproduction library.

All exceptions raised by this package derive from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

__all__ = [
    "ReproError",
    "ConfigError",
    "TimingViolationError",
    "ProtocolError",
    "DataIntegrityError",
    "CapacityError",
    "ConformanceError",
    "ProbeError",
    "SnapshotError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class TimingViolationError(ReproError):
    """A DRAM command was issued before its timing constraints were met.

    The device-side substrate raises this to catch controller bugs: a real
    DRAM chip would silently corrupt data, so the simulator fails loudly.
    """


class ProtocolError(ReproError):
    """A DRAM command was issued in an illegal bank/rank state.

    Examples: activating an already-open bank, reading a closed bank, or
    issuing ``ACT-t`` for a row pair that is not tracked as duplicated.
    """


class DataIntegrityError(ReproError):
    """The functional cell array detected data corruption.

    Raised when a read observes cells whose charge decayed below the
    reliable-sensing threshold (retention expiry, unsafe partial-restore
    access, or RowHammer disturbance in the functional model).
    """


class CapacityError(ReproError):
    """A structural resource (copy rows, MSHRs, queue slots) was exhausted
    in a context where the caller is required to check for space first."""


class ConformanceError(ReproError):
    """The shadow protocol checker observed a spec violation.

    Raised in *strict* mode by :class:`repro.check.ProtocolChecker` when
    an issued command breaks a JEDEC-style timing constraint, a bank
    state-machine rule, or a CROW invariant. The attached ``violation``
    is the structured :class:`repro.check.CheckViolation` record.
    """

    def __init__(self, violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class ProbeError(ReproError):
    """A probe routine could not complete its measurement.

    Raised by :mod:`repro.probe` when a committed probe step is rejected
    by the device (a routine bug — exploratory attempts are sandboxed
    and report rejection as data instead), or when a search cannot
    bracket its target within the command budget.
    """


class SnapshotError(ReproError):
    """A snapshot could not be written, read, or applied.

    Raised by :mod:`repro.snapshot` for corrupt or truncated containers,
    containers of another format version or written by other code
    (another ``code_fingerprint``), and systems that cannot be serialized
    (traces without provenance, unpicklable state).
    Configuration *incompatibility* between a snapshot and the system
    restoring it raises :class:`ConfigError` instead.
    """
