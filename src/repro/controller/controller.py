"""Per-channel memory controller.

Implements the paper's Table 2 controller: 64-entry read and write queues,
FR-FCFS-Cap scheduling, a 75 ns timeout row-buffer policy, write draining
with high/low watermarks, periodic all-bank refresh, and the CROW
mechanism hook for activation planning.

The controller is event-paced: :meth:`ChannelController.tick` issues at
most one DRAM command (the command bus carries one command per cycle) and
returns the next cycle at which calling it again can possibly make
progress, so the simulation loop can skip dead time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.controller.mechanism import ActivationPlan, Mechanism, NoMechanism
from repro.controller.request import MemRequest, RequestType
from repro.controller.scheduler import FrFcfsCap, Scheduler
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramChannel
from repro.dram.timing import REF_COMMANDS_PER_WINDOW
from repro.errors import ConfigError
from repro.units import ns_to_cycles

__all__ = ["ControllerConfig", "ChannelController"]

#: Sentinel wake time for "nothing to do until an external event".
IDLE = 1 << 62

#: Command classes of a scheduling candidate: the request needs an
#: activation, its column access, or a precharge of a conflicting row.
#: A pass indexes its per-class channel bounds with them.
_ACT, _COL, _PRE = 0, 1, 2


@dataclass(frozen=True)
class ControllerConfig:
    """Controller structure and policy parameters (Table 2 defaults)."""

    read_queue_size: int = 64
    write_queue_size: int = 64
    write_drain_high: int = 48
    write_drain_low: int = 16
    fr_fcfs_cap: int = 4
    #: Timeout row policy: close an open row after this long without
    #: pending requests to it. ``None`` selects an open-page policy.
    row_timeout_ns: float | None = 75.0
    #: Maximum ranked candidates evaluated for readiness per tick.
    scheduler_window: int = 12

    def __post_init__(self) -> None:
        if self.read_queue_size < 1 or self.write_queue_size < 1:
            raise ConfigError("queue sizes must be >= 1")
        if not 0 < self.write_drain_low <= self.write_drain_high:
            raise ConfigError("invalid write drain watermarks")
        if self.write_drain_high > self.write_queue_size:
            raise ConfigError("drain_high cannot exceed the write queue size")
        if self.scheduler_window < 1:
            raise ConfigError("scheduler_window must be >= 1")
        if self.fr_fcfs_cap < 1:
            raise ConfigError(
                f"fr_fcfs_cap must be >= 1, got {self.fr_fcfs_cap}"
            )
        timeout = self.row_timeout_ns
        if timeout is not None and not (
            math.isfinite(timeout) and timeout > 0
        ):
            raise ConfigError(
                "row_timeout_ns must be a finite number > 0 "
                f"(None selects open-page), got {timeout}"
            )


class ChannelController:
    """Scheduler + state machine for one DRAM channel."""

    def __init__(
        self,
        channel: DramChannel,
        mechanism: Mechanism | None = None,
        scheduler: Scheduler | None = None,
        config: ControllerConfig | None = None,
        schedule_event: Callable[[int, Callable[[], None]], None] | None = None,
        refresh_enabled: bool = True,
    ) -> None:
        self.channel = channel
        self.geometry = channel.geometry
        self.timing = channel.timing
        self.config = config if config is not None else ControllerConfig()
        self.mechanism = (
            mechanism
            if mechanism is not None
            else NoMechanism(self.geometry, self.timing)
        )
        self.scheduler = (
            scheduler if scheduler is not None else FrFcfsCap(self.config.fr_fcfs_cap)
        )
        # The scheduling pass applies the policy's hit_cap inline; an
        # overridden ranked() would be silently ignored.
        if type(self.scheduler).ranked is not Scheduler.ranked:
            raise ConfigError(
                f"scheduler {type(self.scheduler).__name__} overrides "
                "ranked(); express the policy through hit_cap instead"
            )
        self.schedule_event = schedule_event
        self.refresh_enabled = refresh_enabled
        # Construction-time override detection: mechanisms that pace
        # their own work (HiRA) override next_wake; everyone else pays
        # one `is not None` branch per tick instead of a method call.
        self._mech_wake = (
            self.mechanism.next_wake
            if type(self.mechanism).next_wake is not Mechanism.next_wake
            else None
        )
        # Likewise for mechanism-initiated activations: only mechanisms
        # that override urgent_plan (the RowHammer mitigation, HiRA,
        # CnC-PRAC) are polled on every tick.
        self._urgent = (
            self.mechanism.urgent_plan
            if type(self.mechanism).urgent_plan is not Mechanism.urgent_plan
            else None
        )
        # Mechanisms that redirect rows at run time (CROW-ref and
        # friends) override service_row; their requests re-resolve on
        # every pass, everyone else's only when their bank changes.
        self._dynamic_rows = (
            type(self.mechanism).service_row is not Mechanism.service_row
        )

        self.read_q: list[MemRequest] = []
        self.write_q: list[MemRequest] = []
        # Write-forwarding index: address -> writes to it in write_q.
        # Maintained by enqueue and _dequeue.
        self._write_lines: dict[int, int] = {}
        self.drain_mode = False
        self.next_ref = self.timing.trefi if refresh_enabled else IDLE
        self.hit_streak = [0] * self.geometry.banks_per_channel
        self.bank_last_use = [0] * self.geometry.banks_per_channel
        self.bank_pending = [0] * self.geometry.banks_per_channel
        if self.config.row_timeout_ns is None:
            self.row_timeout = None
        else:
            self.row_timeout = ns_to_cycles(
                self.config.row_timeout_ns, self.timing.clock_mhz
            )

        # Memoized command objects: PRE and REF are fully determined by
        # (bank, subarray), and Command is immutable, so the scheduler can
        # reuse one instance instead of re-validating a frozen dataclass
        # on every readiness evaluation (a top cost in profile runs).
        self._salp = channel.salp
        self._pre_cmds = tuple(
            Command(CommandKind.PRE, bank=b)
            for b in range(self.geometry.banks_per_channel)
        )
        self._salp_pre_cmds: dict[tuple[int, int], Command] = {}
        self._ref_cmd = Command(CommandKind.REF)

        # Pass reuse. Between two ticks the scheduling inputs — queues,
        # bank and channel state, hit streaks, mechanism state — change
        # only on enqueue, dequeue or a command issue. A queue pass that
        # issued nothing is kept as ``(channel version, queue,
        # candidates, class bounds, earliest_any)`` until an enqueue or
        # dequeue drops it: under the same channel version a fresh pass
        # would rank the same candidates with the same readiness times
        # (their ``sched_bound`` memos and the pass's class bounds), so
        # the next tick scans the record instead. A pure cache, pickled
        # with the queue and channel version it describes.
        self._idle_pass: tuple | None = None

        # Statistics.
        self.stats = {
            "reads_served": 0,
            "writes_served": 0,
            "row_hits": 0,
            "row_misses": 0,
            "row_conflicts": 0,
            "forwarded_reads": 0,
            "restore_activations": 0,
            "refreshes": 0,
            "read_latency_sum": 0,
            "write_drains": 0,
        }
        #: Optional telemetry hook: a ``Histogram`` observing read
        #: latencies (set by :class:`repro.telemetry.SystemTelemetry`;
        #: ``None`` — the default — costs one branch per completion).
        self.latency_hist = None

    # ------------------------------------------------------------------
    # Request admission
    # ------------------------------------------------------------------
    def can_accept(self, type: RequestType) -> bool:
        """Whether the queue for ``type`` has a free slot."""
        if type is RequestType.READ:
            return len(self.read_q) < self.config.read_queue_size
        return len(self.write_q) < self.config.write_queue_size

    def enqueue(self, request: MemRequest, now: int) -> bool:
        """Accept a request; returns False when the queue is full."""
        if not self.can_accept(request.type):
            return False
        self._idle_pass = None
        request.arrival = now
        if request.type is RequestType.READ:
            if request.address in self._write_lines:
                self.stats["forwarded_reads"] += 1
                self._complete(request, now + self.timing.tcl)
                return True
            self.read_q.append(request)
        else:
            self.write_q.append(request)
            lines = self._write_lines
            lines[request.address] = lines.get(request.address, 0) + 1
            if len(self.write_q) >= self.config.write_drain_high:
                if not self.drain_mode:
                    self.stats["write_drains"] += 1
                self.drain_mode = True
        self.bank_pending[request.location.bank] += 1
        return True

    @property
    def pending_requests(self) -> int:
        """Requests currently waiting in both queues."""
        return len(self.read_q) + len(self.write_q)

    # ------------------------------------------------------------------
    # Main issue loop
    # ------------------------------------------------------------------
    def tick(self, now: int) -> int:
        """Issue at most one command; return the next useful wake time."""
        if now >= self.next_ref and self.refresh_enabled:
            return self._do_refresh(now)

        if self._urgent is not None:
            urgent = self._urgent(now)
            if urgent is not None:
                wake = self._serve_urgent(urgent, now)
                if wake is not None:
                    return wake

        queue = self._active_queue()
        if queue:
            issued, earliest = self._serve_queue(queue, now)
            if issued:
                return now + 1
            wake = earliest
        else:
            wake = IDLE

        # Inline comparisons instead of min()/max() calls: most ticks
        # end here.
        timeout_wake = self._apply_row_timeout(now)
        if timeout_wake < wake:
            wake = timeout_wake
        if self._mech_wake is not None:
            mech_wake = self._mech_wake(now)
            if mech_wake < wake:
                wake = mech_wake
        if self.next_ref < wake:
            wake = self.next_ref
        return wake if wake > now else now + 1

    # ------------------------------------------------------------------
    # Refresh handling
    # ------------------------------------------------------------------
    def _do_refresh(self, now: int) -> int:
        """Progress toward the pending REF; return the next wake time."""
        # Precharge any open bank first (one PRE per tick).
        for bank_index, bank in enumerate(self.channel.banks):
            if not bank.is_open:
                continue
            pre = self._pre_command_for_bank(bank_index)
            earliest = self.channel.earliest_issue(pre)
            if earliest <= now:
                self._issue_pre(pre, now)
                return now + 1
            return earliest
        ref = self._ref_cmd
        earliest = self.channel.earliest_issue(ref)
        if earliest > now:
            return earliest
        cursor = self.channel.refresh_cursor
        rows_per_ref = max(1, self.geometry.rows_per_bank // REF_COMMANDS_PER_WINDOW)
        self.channel.issue(ref, now)
        self.stats["refreshes"] += 1
        self.mechanism.on_refresh(range(cursor, cursor + rows_per_ref), now)
        self.next_ref += self.timing.trefi
        return self.channel.ref_busy_until

    # ------------------------------------------------------------------
    # Mechanism-initiated (urgent) activations
    # ------------------------------------------------------------------
    def _serve_urgent(
        self, urgent: tuple[int, ActivationPlan], now: int
    ) -> int | None:
        """Issue one command toward an urgent plan; return the wake time,
        or None to fall through to normal queue service this tick."""
        bank_index, plan = urgent
        bank = self.channel.banks[bank_index]
        if bank.is_open:
            pre = self._pre_command_for_bank(bank_index)
            earliest = self.channel.earliest_issue(pre)
            if earliest <= now:
                self._issue_pre(pre, now)
                return now + 1
            return earliest
        earliest = self.channel.earliest_act(
            bank_index, plan.rows[0].subarray
        )
        if earliest <= now:
            self._issue_act(bank_index, plan, now)
            self.hit_streak[bank_index] = 0
            self.bank_last_use[bank_index] = now
            self.mechanism.on_activate(bank_index, plan, now)
            return now + 1
        return earliest

    # ------------------------------------------------------------------
    # Queue service
    # ------------------------------------------------------------------
    def _active_queue(self) -> list[MemRequest]:
        if self.drain_mode:
            if len(self.write_q) <= self.config.write_drain_low:
                self.drain_mode = False
            else:
                return self.write_q
        if self.read_q:
            return self.read_q
        return self.write_q

    def _serve_queue(
        self, queue: list[MemRequest], now: int
    ) -> tuple[bool, int]:
        """Try to issue one command for the highest-priority ready request.

        Returns ``(issued, earliest)`` where ``earliest`` is the soonest
        time any evaluated candidate could have issued (IDLE if none).

        One scan in arrival order reads each request's classification
        (:meth:`_resolve`, re-run only when its bank's version moved) and
        applies the scheduler's ``hit_cap`` (the order of
        :meth:`Scheduler.ranked`): row hits whose bank streak is below
        the cap are promoted, the rest deferred, each group in arrival
        order; under FCFS (cap 0) nothing is promoted. Candidates are
        then probed promoted first. A probe's readiness is the maximum
        of the channel bound of its command class, evaluated once per
        pass, and its memoized bank-slot bound.
        """
        channel = self.channel
        idle = self._idle_pass
        if (
            idle is not None
            and idle[0] == channel.version
            and idle[1] is queue
        ):
            class_bounds = idle[3]
            for request in idle[2]:
                earliest = request.sched_bound
                bound = class_bounds[request.sched_kind]
                if bound > earliest:
                    earliest = bound
                if earliest <= now:
                    self._issue_candidate(request, now)
                    return True, now
            return False, idle[4]

        act_bound, rd_bound, wr_bound, pre_bound = channel.channel_bounds()
        # A queue holds one request type: its column accesses share a
        # bound.
        col_bound = rd_bound if queue is self.read_q else wr_bound
        class_bounds = (act_bound, col_bound, pre_bound)
        hit_cap = self.scheduler.hit_cap
        versions = channel.bank_versions
        hit_streak = self.hit_streak
        promoted: list[MemRequest] = []
        deferred: list[MemRequest] = []
        for request in queue:
            bank = request.location.bank
            if request.sched_version != versions[bank]:
                self._resolve(request, bank)
            if request.sched_kind == _COL and hit_streak[bank] < hit_cap:
                promoted.append(request)
            else:
                deferred.append(request)
        ranked = promoted + deferred if promoted else deferred
        # Every probe either issues or waits: the window is a prefix.
        window = self.config.scheduler_window
        if len(ranked) > window:
            ranked = ranked[:window]
        earliest_any = IDLE
        for request in ranked:
            earliest = request.sched_bound
            bound = class_bounds[request.sched_kind]
            if bound > earliest:
                earliest = bound
            if earliest <= now:
                self._issue_candidate(request, now)
                return True, now
            if earliest < earliest_any:
                earliest_any = earliest
        self._idle_pass = (
            channel.version, queue, ranked, class_bounds, earliest_any
        )
        return False, earliest_any

    def _resolve(self, request: MemRequest, bank: int) -> None:
        """Classify ``request`` against its bank's current state.

        Fills the request's ``sched_*`` memo: the service row and the
        bank slot (per subarray under SALP) holding it — resolved once,
        or on every pass for a mechanism that redirects rows at run
        time — then the next command's class (activation, column access
        or precharge of a conflicting row) and the slot's readiness
        bound for it, stamped with the bank's current version.
        """
        if request.sched_version < 0:
            srow = self.mechanism.service_row(bank, request.location.row)
            slot = self.channel.banks[bank]
            if self._salp:
                slot = slot.subarrays[srow.subarray]
            request.sched_row = srow
            request.sched_slot = slot
        else:
            srow = request.sched_row
            slot = request.sched_slot
        open_rows = slot.open_rows
        if open_rows is None:
            request.sched_kind = _ACT
            request.sched_bound = slot.earliest_act()
        elif srow in open_rows:
            request.sched_kind = _COL
            request.sched_bound = slot.earliest_col()
        else:
            request.sched_kind = _PRE
            request.sched_bound = slot.earliest_pre()
        # A runtime redirection is never kept: -1 re-resolves next pass.
        request.sched_version = (
            -1 if self._dynamic_rows else self.channel.bank_versions[bank]
        )

    def _issue_candidate(self, request: MemRequest, now: int) -> None:
        """Issue the next command of ``request`` as last resolved — an
        activation (``_ACT``), its column access (``_COL``) or a
        precharge of the conflicting row (``_PRE``) — in the service
        row's subarray (SALP) or bank.

        Activations are planned here, at issue time: ``plan_activation``
        must be side-effect free and target the service row's subarray
        (the slot the scheduling pass probed); mechanisms mutate their
        state only in ``on_activate``.
        """
        bank = request.location.bank
        kind = request.sched_kind
        if kind == _ACT:
            plan = self.mechanism.plan_activation(
                bank, request.location.row, now
            )
            self._issue_act(bank, plan, now)
            self.hit_streak[bank] = 0
            self.bank_last_use[bank] = now
            self.stats["row_misses"] += 1
            if plan.is_restore:
                self.stats["restore_activations"] += 1
            self.mechanism.on_activate(bank, plan, now)
            return
        subarray = request.sched_row.subarray if self._salp else None
        if kind == _PRE:
            result = self.channel.issue(self._pre_command(bank, subarray), now)
            self.hit_streak[bank] = 0
            self.stats["row_conflicts"] += 1
            assert result.precharge is not None
            self.mechanism.on_precharge(bank, result.precharge, now)
            return
        command = Command(
            CommandKind.RD
            if request.type is RequestType.READ
            else CommandKind.WR,
            bank=bank,
            col=request.location.col,
            subarray=subarray,
        )
        result = self.channel.issue(command, now)
        self.hit_streak[bank] += 1
        self.bank_last_use[bank] = now
        self.stats["row_hits"] += 1
        self._dequeue(request)
        if command.kind is CommandKind.RD:
            self.stats["reads_served"] += 1
            self._complete(request, result.data_at)
        else:
            self.stats["writes_served"] += 1
            self._complete(request, result.done_at)

    def _issue_act(self, bank: int, plan: ActivationPlan, now: int) -> None:
        command = Command(
            plan.kind, bank=bank, rows=plan.rows, timings=plan.timings
        )
        self.channel.issue(command, now)

    def _dequeue(self, request: MemRequest) -> None:
        if request.type is RequestType.READ:
            self.read_q.remove(request)
        else:
            self.write_q.remove(request)
            lines = self._write_lines
            count = lines[request.address] - 1
            if count:
                lines[request.address] = count
            else:
                del lines[request.address]
        self.bank_pending[request.location.bank] -= 1
        self._idle_pass = None

    def _complete(self, request: MemRequest, finish: int) -> None:
        request.completed_at = finish
        if request.type is RequestType.READ:
            latency = finish - request.arrival
            self.stats["read_latency_sum"] += latency
            if self.latency_hist is not None:
                self.latency_hist.observe(latency)
        if request.callback is None:
            return
        if self.schedule_event is None:
            request.callback(request, finish)
        else:
            self.schedule_event(finish, request)

    # ------------------------------------------------------------------
    # Row-buffer policy
    # ------------------------------------------------------------------
    def _apply_row_timeout(self, now: int) -> int:
        """Close idle open rows after the timeout; return next expiry."""
        if self.row_timeout is None:
            return IDLE
        next_expiry = IDLE
        timeout = self.row_timeout
        pending = self.bank_pending
        last_use = self.bank_last_use
        salp = self._salp
        if 0 not in pending:
            return IDLE  # every bank has requests waiting
        for bank_index, bank in enumerate(self.channel.banks):
            if pending[bank_index]:
                continue
            if salp:
                if not bank.is_open:
                    continue
            elif bank.open_rows is None:
                continue
            expiry = last_use[bank_index] + timeout
            if expiry > now:
                if expiry < next_expiry:
                    next_expiry = expiry
                continue
            pre = self._pre_command_for_bank(bank_index)
            earliest = self.channel.earliest_issue(pre)
            if earliest <= now:
                self._issue_pre(pre, now)
                return now + 1
            if earliest < next_expiry:
                next_expiry = earliest
        return next_expiry

    def _issue_pre(self, pre: Command, now: int) -> None:
        result = self.channel.issue(pre, now)
        self.hit_streak[pre.bank] = 0
        assert result.precharge is not None
        self.mechanism.on_precharge(pre.bank, result.precharge, now)

    # ------------------------------------------------------------------
    # SALP-aware helpers
    # ------------------------------------------------------------------
    def _pre_command(self, bank_index: int, subarray: int | None) -> Command:
        if self._salp:
            key = (bank_index, subarray)
            command = self._salp_pre_cmds.get(key)
            if command is None:
                command = Command(
                    CommandKind.PRE, bank=bank_index, subarray=subarray
                )
                self._salp_pre_cmds[key] = command
            return command
        return self._pre_cmds[bank_index]

    def _pre_command_for_bank(self, bank_index: int) -> Command:
        """A PRE that closes (one of) the bank's open row buffers."""
        bank = self.channel.banks[bank_index]
        if self._salp:
            for subarray, slot in bank.subarrays.items():
                if slot.is_open:
                    return self._pre_command(bank_index, subarray)
            raise ConfigError("no open subarray to precharge")
        return self._pre_cmds[bank_index]
