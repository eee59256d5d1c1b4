"""Runtime DRAM/CROW protocol-conformance checking.

This package provides an *independent* shadow implementation of the
DRAM command-legality rules the simulator is supposed to obey: JEDEC
inter-command timing, bank/row state-machine legality, and the CROW
duplicate-row invariants from the paper. A
:class:`~repro.check.checker.ProtocolChecker` attaches to a
:class:`~repro.dram.device.DramChannel`'s observer bus and validates
every issued command, producing structured :class:`CheckViolation`
records (or raising :class:`~repro.errors.ConformanceError` in strict
mode). :func:`~repro.check.replay.replay` applies the same checker
offline to a logged ``(cycle, command)`` stream, replayed through a
fresh device with data-integrity checking armed.

:mod:`repro.check.scenarios` adds randomized short-simulation scenarios
shared by the ``python -m repro check`` CLI and the hypothesis fuzz
layer in ``tests/fuzz/``.
"""

from repro.check.checker import REFRESH_POSTPONE_SLACK, ProtocolChecker
from repro.check.replay import replay
from repro.check.violations import CheckReport, CheckViolation

__all__ = [
    "ProtocolChecker",
    "CheckReport",
    "CheckViolation",
    "REFRESH_POSTPONE_SLACK",
    "replay",
]
