"""SoftMC-style raw probing host for one DRAM channel.

:class:`ProbeSession` drives :meth:`repro.dram.device.DramChannel.issue`
directly — no cores, no LLC, no controller scheduling — with
cycle-accurate control over *when* every command goes on the bus. It is
the device side of the probing experiment: built from the ground-truth
:class:`~repro.sim.config.SystemConfig` through the same
:mod:`repro.sim.factory` path as :class:`~repro.sim.system.System`
(resolved geometry, LPDDR4 timing, CROW timings, retention model, and
the mechanism whose boot-time work — e.g. CROW-ref weak-row remapping —
defines the device's power-on state).

The host-facing surface deliberately leaks none of that: routines in
:mod:`repro.probe.routines` see only *observable behaviour* —

* whether a command at a chosen cycle is **accepted** or rejected, and
  the coarse rejection class (address decode, timing, bank state,
  conformance category, data integrity),
* result latencies (read data cycle, write completion cycle),
* precharge restoration outcomes,
* retention-induced bit errors from a write/wait/read experiment at a
  chosen interval.

Every exploratory :meth:`attempt` is sandboxed: the channel (and the
optional strict shadow :class:`~repro.check.ProtocolChecker`) are
pickled before the command and the session swaps in the unpickled
copies after, so probing a rejection never corrupts the timeline —
exactly the mark/rollback discipline a SoftMC host applies by
re-initializing the module between experiments.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.cache import (
    crow_act_c_timings,
    crow_act_t_timings,
    crow_safe_copy_timings,
)
from repro.dram import DramChannel, TimingParameters
from repro.dram.commands import Command, CommandKind, RowId
from repro.errors import (
    ConformanceError,
    DataIntegrityError,
    ProbeError,
    ProtocolError,
    TimingViolationError,
)
from repro.mech import get_plugin
from repro.sim import factory
from repro.sim.config import SystemConfig
from repro.telemetry import StatRegistry

__all__ = ["ProbeOutcome", "ProbeSession"]

#: Rejection classes a raw host can tell apart.
REASONS = ("ok", "address", "timing", "state", "conformance", "data")


@dataclass(frozen=True)
class ProbeOutcome:
    """What the host observed from one command attempt."""

    accepted: bool
    #: ``"ok"`` or the rejection class (see :data:`REASONS`).
    reason: str
    #: For conformance rejections: the coarse violation category the
    #: shadow checker exposes (``timing``/``state``/``refresh``/``crow``)
    #: — never the named constraint.
    category: "str | None" = None
    #: Cycle read data appears on the bus (RD commands).
    data_at: "int | None" = None
    #: Cycle the command completes (WR data tail, REF blackout end).
    done_at: "int | None" = None
    #: Whether a PRE left the row(s) fully restored.
    fully_restored: "bool | None" = None


class ProbeSession:
    """Raw command-level access to one channel of a configured device.

    :param config: ground truth the device is built from. Inference
        never reads it back — only :meth:`repro.probe.infer.
        InferredProfile.verify_against` does, as the oracle.
    :param channel: channel index to instantiate (mechanism boot state,
        retention sampling and checker seeding are all per-channel).
    :param shadow: attach a strict :class:`~repro.check.ProtocolChecker`
        so every probe sequence is conformance-validated and checker
        verdicts become observables (CROW mapping and weak-row rules are
        *only* visible through it).
    :param timing: override the device's timing parameters — a deliberate
        mis-parameterization hook for tests that need a lying device;
        ``None`` derives timing from ``config`` like ``System`` does.
    """

    def __init__(
        self,
        config: SystemConfig,
        channel: int = 0,
        shadow: bool = True,
        timing: "TimingParameters | None" = None,
    ) -> None:
        self.config = config
        self.channel_index = channel
        self.geometry = config.resolved_geometry()
        base = timing if timing is not None else factory.base_timing(config)
        self.crow_timings = factory.build_crow_timings(
            config, self.geometry, base
        )
        mechanism_retention = factory.build_retention(config, self.geometry)
        self.mechanism = factory.build_mechanism(
            config, self.geometry, base, self.crow_timings,
            mechanism_retention, channel,
        )
        self.timing = factory.final_timing(base, [self.mechanism])
        # Cell physics exists on every device, not just the mechanisms
        # that exploit it: the retention oracle is unconditional.
        self.retention = (
            mechanism_retention
            if mechanism_retention is not None
            else factory.retention_model(config, self.geometry)
        )
        plugin = get_plugin(config.mechanism)
        salp_subarrays = plugin.salp_subarrays(config, self.geometry)
        self.device = DramChannel(
            self.geometry, self.timing, salp_subarrays=salp_subarrays
        )
        self.checker = (
            factory.build_checker(
                config, self.device, self.mechanism, mechanism_retention,
                channel, "strict",
            )
            if shadow
            else None
        )
        self.now = 0
        #: The :meth:`mark` token of the current state, until a command
        #: issues.
        self._token: bytes | None = None
        self.stats = StatRegistry()
        probe = self.stats.group("probe")
        self._n_attempts = probe.counter(
            "attempts", "commands offered to the device (incl. sandboxed)"
        )
        self._n_commits = probe.counter(
            "commits", "commands committed to the session timeline"
        )
        self._n_restores = probe.counter(
            "restores", "state rollbacks after sandboxed attempts"
        )
        self._n_retention = probe.counter(
            "retention_probes", "write/wait/read retention experiments"
        )
        rejected = probe.group("rejected")
        self._n_rejected = {
            reason: rejected.counter(reason, f"{reason}-class rejections")
            for reason in REASONS
            if reason != "ok"
        }

    # ------------------------------------------------------------------
    # Command builders (host address space: bank + bank-level row ints)
    # ------------------------------------------------------------------
    def cmd_act(self, bank: int, row: int) -> Command:
        """Plain activate of a regular row (bank-level row number)."""
        return Command(
            CommandKind.ACT,
            bank,
            (RowId.regular(row, self.geometry.rows_per_subarray),),
        )

    def cmd_act_copy(self, bank: int, subarray: int, slot: int) -> Command:
        """Plain activate of a copy row through the CROW decoder."""
        return Command(CommandKind.ACT, bank, (RowId.copy(subarray, slot),))

    def cmd_act_c(
        self, bank: int, row: int, slot: int, early: bool = False
    ) -> Command:
        """``ACT-c``: activate ``row`` and copy it into its subarray's
        copy slot ``slot`` (early-termination mode optional)."""
        source = RowId.regular(row, self.geometry.rows_per_subarray)
        dest = RowId.copy(source.subarray, slot)
        return Command(
            CommandKind.ACT_C, bank, (source, dest),
            timings=(
                crow_act_c_timings(self._crow(), True, True, True)
                if early
                else crow_safe_copy_timings(self._crow())
            ),
        )

    def cmd_act_t(
        self,
        bank: int,
        row: int,
        slot: int,
        partial: bool = False,
        early: bool = False,
    ) -> Command:
        """``ACT-t``: simultaneously activate ``row`` and copy slot
        ``slot`` (which must hold its duplicate). ``partial`` selects the
        partially-restored-pair timing mode; ``early`` permits
        early-terminated restoration."""
        source = RowId.regular(row, self.geometry.rows_per_subarray)
        dest = RowId.copy(source.subarray, slot)
        return Command(
            CommandKind.ACT_T, bank, (source, dest),
            timings=crow_act_t_timings(
                self._crow(), True, True, not partial, force_full=not early
            ),
        )

    def cmd_rd(
        self, bank: int, col: int = 0, subarray: "int | None" = None
    ) -> Command:
        return Command(CommandKind.RD, bank, col=col, subarray=subarray)

    def cmd_wr(
        self, bank: int, col: int = 0, subarray: "int | None" = None
    ) -> Command:
        return Command(CommandKind.WR, bank, col=col, subarray=subarray)

    def cmd_pre(self, bank: int, subarray: "int | None" = None) -> Command:
        return Command(CommandKind.PRE, bank, subarray=subarray)

    def cmd_ref(self) -> Command:
        return Command(CommandKind.REF)

    def _crow(self):
        if self.crow_timings is None:
            raise ProtocolError(
                "device has no copy-row decoder (0 copy rows per subarray)"
            )
        return self.crow_timings

    # ------------------------------------------------------------------
    # Mark / restore (the SoftMC "re-initialize between experiments")
    # ------------------------------------------------------------------
    def mark(self) -> bytes:
        """Snapshot the channel + shadow checker + session clock.

        The token is ``pickle.dumps((device, checker, now))``. Sandboxed
        attempts mark the same state over and over, so the token of the
        state last marked or restored is kept until a command issues.
        """
        if self._token is None:
            self._token = pickle.dumps(
                (self.device, self.checker, self.now),
                pickle.HIGHEST_PROTOCOL,
            )
        return self._token

    def restore(self, token: bytes) -> None:
        """Roll the session back to a :meth:`mark` token.

        The session's references are swapped for unpickled copies;
        nothing else holds the device or checker.
        """
        self.device, self.checker, self.now = pickle.loads(token)
        self._token = token
        self._n_restores.add()

    @contextmanager
    def sandbox(self):
        """Scope whose committed steps are rolled back on exit."""
        token = self.mark()
        try:
            yield
        finally:
            self.restore(token)

    # ------------------------------------------------------------------
    # Command issue
    # ------------------------------------------------------------------
    def _issue(self, command: Command, at: int) -> ProbeOutcome:
        self._token = None
        try:
            self.device.validate_address(command)
        except ProtocolError:
            return ProbeOutcome(False, "address")
        try:
            result = self.device.issue(command, at)
        except TimingViolationError:
            return ProbeOutcome(False, "timing")
        except ProtocolError:
            return ProbeOutcome(False, "state")
        except ConformanceError as error:
            return ProbeOutcome(
                False, "conformance", category=error.violation.category
            )
        except DataIntegrityError:
            return ProbeOutcome(False, "data")
        precharge = result.precharge
        return ProbeOutcome(
            True,
            "ok",
            data_at=result.data_at,
            done_at=result.done_at,
            fully_restored=(
                precharge.fully_restored if precharge is not None else None
            ),
        )

    def attempt(self, command: Command, at: int) -> ProbeOutcome:
        """Offer ``command`` at cycle ``at``; observe, then roll back.

        Pure observation: device and checker state are restored whether
        the command was accepted or not, so searches can hammer the same
        timeline position with different gaps. The strict checker raises
        *after* the device mutates, which is exactly why the rollback is
        unconditional.
        """
        token = self.mark()
        self._n_attempts.add()
        outcome = self._issue(command, at)
        if not outcome.accepted:
            self._n_rejected[outcome.reason].add()
        self.restore(token)
        return outcome

    def step(self, command: Command, at: int) -> ProbeOutcome:
        """Commit ``command`` at cycle ``at`` to the session timeline.

        A rejected step is a routine bug, not a measurement: state is
        rolled back and :class:`~repro.errors.ProbeError` raised.
        """
        token = self.mark()
        self._n_attempts.add()
        outcome = self._issue(command, at)
        if not outcome.accepted:
            self._n_rejected[outcome.reason].add()
            self.restore(token)
            raise ProbeError(
                f"probe step rejected ({outcome.reason}): "
                f"{command.kind.name} bank {command.bank} at {at}"
            )
        self.now = max(self.now, at)
        self._n_commits.add()
        return outcome

    def step_earliest(self, command: Command) -> tuple[int, ProbeOutcome]:
        """Commit ``command`` at the first cycle the device accepts it.

        Models a host that polls the bus until the device is ready —
        setup plumbing for experiments, not a measurement (routines must
        not feed the returned cycle into inference; they *search* for
        minimum gaps via :meth:`attempt` instead).
        """
        self.device.validate_address(command)
        at = max(self.device.earliest_issue(command), self.now)
        return at, self.step(command, at)

    # ------------------------------------------------------------------
    # Retention observable
    # ------------------------------------------------------------------
    @property
    def target_retention_interval_ms(self) -> float:
        """Default refresh interval for retention experiments.

        A run parameter (the interval regime the experiment plan
        targets), not an inference — routines may override it per probe.
        """
        return self.retention.target_interval_ms

    def retention_errors(
        self,
        bank: int,
        row: int,
        interval_ms: float,
        copy: bool = False,
        subarray: "int | None" = None,
    ) -> bool:
        """Write/wait/read experiment: does ``row`` decay at ``interval_ms``?

        Models writing the row fully restored, pausing refresh for
        ``interval_ms``, and reading back — ``True`` when the readback
        differs (the row's retention time is shorter than the interval).
        For ``copy`` rows, ``row`` is the copy-slot index and
        ``subarray`` addresses the subarray.
        """
        self._n_retention.add()
        geometry = self.geometry
        if copy:
            if subarray is None:
                raise ProbeError("copy-row retention probe needs a subarray")
            sub, index = subarray, row
            if not 0 <= index < geometry.copy_rows_per_subarray:
                raise ProbeError(f"copy slot {index} out of range")
        else:
            if not 0 <= row < geometry.rows_per_bank:
                raise ProbeError(f"row {row} out of range")
            sub = row // geometry.rows_per_subarray
            index = row % geometry.rows_per_subarray
        if not 0 <= bank < geometry.banks_per_channel:
            raise ProbeError(f"bank {bank} out of range")
        retention_ms = self.retention.row_retention_ms(
            self.channel_index, bank, sub, index, is_copy=copy
        )
        return interval_ms > retention_ms

    # ------------------------------------------------------------------
    # Budget export
    # ------------------------------------------------------------------
    def budget(self) -> dict:
        """Flat command-budget counters (telemetry export projection)."""
        return {
            path: stat.export()["value"]
            for path, stat in self.stats.flatten()
        }
