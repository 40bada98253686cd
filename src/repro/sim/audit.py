"""Opt-in runtime invariant auditor (sanitizer layer).

The static layer (``repro.devtools.replint``, mypy) forbids *sources* of
nondeterminism at review time; this module checks the *conservation laws*
the simulator's correctness rests on while a simulation actually runs:

* **Event time sanity** — the engine clock is monotonic, event times are
  finite and non-negative, and a cancelled :class:`~repro.sim.engine.
  EventHandle` never fires.
* **Byte conservation** — per dimension channel, at every enqueue and
  completion: bytes admitted = bytes completed + bytes outstanding.
* **Rate capacity** — under weighted sharing, the per-tenant rates are
  positive and sum to at most the wire's capacity (1.0) after every
  reschedule.
* **Stats debit/credit balance** — preemption debits exactly what segment
  starts credited: whenever a channel goes idle, its cumulative
  :class:`~repro.sim.executor.ChannelStats` must equal the sum over
  *completed* batches of their transfer seconds / bytes / fixed latency.

The auditor is a pure observer: it is consulted behind ``if auditor is
not None`` guards, schedules no events, and mutates no simulator state, so
an audited run's timeline is bit-identical to an unaudited one (enforced
by ``tests/test_perf_equivalence.py``).

Enable it with ``run(spec, audit=True)``, the CLI ``--audit`` flag, or the
``THEMIS_AUDIT=1`` environment variable; a violated invariant raises
:class:`InvariantViolation` with the offending channel/op context attached.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..numeric import ordered_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import EventHandle, EventQueue
    from .executor import DimensionChannel, OpState, _FlowView, _RunningBatch

#: Relative tolerance for conserved-quantity comparisons.  Byte and time
#: ledgers accumulate float round-off proportional to the running totals;
#: real conservation bugs are off by whole ops, many orders above this.
_CONSERVATION_RTOL = 1e-6
#: Absolute slack for the shared-wire rate-capacity check (rates are
#: ``w_i / sum(w)`` so their sum is 1.0 up to division round-off).
_RATE_ATOL = 1e-9

_FALSY = frozenset({"", "0", "false", "no", "off"})


def audit_from_env() -> bool:
    """Whether ``THEMIS_AUDIT`` requests auditing (unset/falsy ⇒ off)."""
    return os.environ.get("THEMIS_AUDIT", "").strip().lower() not in _FALSY


def resolve_audit(audit: bool | None) -> bool:
    """Resolve an ``audit`` parameter: ``None`` defers to the environment."""
    return audit_from_env() if audit is None else bool(audit)


class InvariantViolation(SimulationError):
    """A runtime invariant was violated; carries structured context.

    Attributes
    ----------
    invariant:
        Stable identifier of the violated invariant (e.g.
        ``"byte-conservation"``), for tests and triage.
    time:
        Simulation time at which the violation was detected.
    dim_index:
        Offending dimension channel, when the invariant is per-channel.
    context:
        Free-form numeric context (ledger values, offending handle state).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        time: float | None = None,
        dim_index: int | None = None,
        context: dict[str, object] | None = None,
    ) -> None:
        self.invariant = invariant
        self.time = time
        self.dim_index = dim_index
        self.context = dict(context or {})
        where = []
        if dim_index is not None:
            where.append(f"dim{dim_index}")
        if time is not None:
            where.append(f"t={time!r}")
        suffix = f" [{' '.join(where)}]" if where else ""
        detail = ""
        if self.context:
            pairs = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
            detail = f" ({pairs})"
        super().__init__(f"invariant {invariant!r} violated: {message}{suffix}{detail}")


@dataclass
class _ChannelLedger:
    """Shadow accounting for one dimension channel."""

    admitted_bytes: float = 0.0
    completed_bytes: float = 0.0
    completed_transfer_seconds: float = 0.0
    completed_fixed_seconds: float = 0.0
    started_batches: int = 0
    completed_batches: int = 0


@dataclass
class InvariantAuditor:
    """Observer-only invariant checker shared by one engine and its channels.

    One auditor instance is attached to an :class:`~repro.sim.engine.
    EventQueue` and every :class:`~repro.sim.executor.DimensionChannel`
    built on it (see ``NetworkSimulator(audit=True)``).  All hooks are
    read-only with respect to simulator state.
    """

    checks_run: int = 0
    #: Keyed by channel object (not dim index): co-tenant simulators sharing
    #: one engine each have their own dim0..dimN channels.  The map is never
    #: iterated, so object-identity keys cannot leak into event ordering.
    _ledgers: "dict[DimensionChannel, _ChannelLedger]" = field(default_factory=dict)
    #: Jobs currently holding a concurrency slot (admitted, not departed).
    _admitted_jobs: set[str] = field(default_factory=set)
    #: Jobs whose slot was already recycled (departed exactly once).
    _departed_jobs: set[str] = field(default_factory=set)

    # --- engine hooks -------------------------------------------------------
    def on_event_scheduled(self, queue: "EventQueue", time: float) -> None:
        """Scheduled times must be finite (NaN would corrupt heap order)."""
        self.checks_run += 1
        if math.isnan(time) or math.isinf(time):
            raise InvariantViolation(
                "finite-event-time",
                f"event scheduled at non-finite time {time!r}",
                time=queue.now,
            )

    def on_event_fire(
        self, queue: "EventQueue", time: float, handle: "EventHandle"
    ) -> None:
        """Clock monotonicity, non-negative time, cancelled-never-fires."""
        self.checks_run += 1
        if handle.cancelled:
            raise InvariantViolation(
                "cancelled-event-fired",
                "a cancelled event handle reached the firing path",
                time=time,
                context={"scheduled_time": handle.time},
            )
        if time < queue.now:
            raise InvariantViolation(
                "monotonic-time",
                f"event at {time!r} fires before current time {queue.now!r}",
                time=queue.now,
            )
        if time < 0.0:
            raise InvariantViolation(
                "non-negative-time",
                f"event fires at negative time {time!r}",
                time=time,
            )

    # --- cluster job-slot hooks ---------------------------------------------
    def on_job_admitted(
        self, name: str, *, time: float, live: int, cap: int | None
    ) -> None:
        """Admission: each job takes exactly one slot, within the cap."""
        self.checks_run += 1
        if name in self._admitted_jobs or name in self._departed_jobs:
            raise InvariantViolation(
                "job-slot",
                f"job {name!r} admitted twice",
                time=time,
            )
        self._admitted_jobs.add(name)
        if live < 1:
            raise InvariantViolation(
                "job-slot",
                f"live-job count {live} < 1 right after an admission",
                time=time,
            )
        if cap is not None and live > cap:
            raise InvariantViolation(
                "job-slot",
                f"admission pushed live-job count to {live}, above the "
                f"max_concurrent cap {cap}",
                time=time,
                context={"job": name},
            )

    def on_job_departed(self, name: str, *, time: float, live: int) -> None:
        """Departure: every slot is freed exactly once, never below zero."""
        self.checks_run += 1
        if name not in self._admitted_jobs:
            message = (
                f"job {name!r} freed its slot twice"
                if name in self._departed_jobs
                else f"job {name!r} departed without being admitted"
            )
            raise InvariantViolation("job-slot", message, time=time)
        self._admitted_jobs.discard(name)
        self._departed_jobs.add(name)
        if live < 0:
            raise InvariantViolation(
                "job-slot",
                f"live-job count went negative ({live}) at a departure",
                time=time,
                context={"job": name},
            )

    # --- channel hooks ------------------------------------------------------
    def _ledger(self, channel: "DimensionChannel") -> _ChannelLedger:
        ledger = self._ledgers.get(channel)
        if ledger is None:
            ledger = _ChannelLedger()
            self._ledgers[channel] = ledger
        return ledger

    def _byte_tolerance(self, ledger: _ChannelLedger) -> float:
        return _CONSERVATION_RTOL * max(1.0, ledger.admitted_bytes)

    def _check_conservation(
        self, channel: "DimensionChannel", ledger: _ChannelLedger, when: str
    ) -> None:
        self.checks_run += 1
        outstanding = channel._outstanding_bytes
        imbalance = ledger.admitted_bytes - ledger.completed_bytes - outstanding
        if abs(imbalance) > self._byte_tolerance(ledger):
            raise InvariantViolation(
                "byte-conservation",
                f"admitted != completed + outstanding at {when}",
                time=channel.engine.now,
                dim_index=channel.dim_index,
                context={
                    "admitted": ledger.admitted_bytes,
                    "completed": ledger.completed_bytes,
                    "outstanding": outstanding,
                    "imbalance": imbalance,
                },
            )
        if outstanding < -self._byte_tolerance(ledger):
            raise InvariantViolation(
                "byte-conservation",
                "outstanding bytes went negative",
                time=channel.engine.now,
                dim_index=channel.dim_index,
                context={"outstanding": outstanding},
            )

    def on_enqueue(self, channel: "DimensionChannel", op: "OpState") -> None:
        ledger = self._ledger(channel)
        ledger.admitted_bytes += op.bytes_sent
        self._check_conservation(channel, ledger, "enqueue")

    def on_batch_start(
        self, channel: "DimensionChannel", batch: "list[OpState]"
    ) -> None:
        self._ledger(channel).started_batches += 1

    def on_batch_complete(
        self, channel: "DimensionChannel", batch: "list[OpState]"
    ) -> None:
        """Completion: conservation, then debit/credit balance at idle."""
        ledger = self._ledger(channel)
        ledger.completed_bytes += ordered_sum(op.bytes_sent for op in batch)
        ledger.completed_transfer_seconds += ordered_sum(
            op.transfer_time for op in batch
        )
        ledger.completed_fixed_seconds += max(op.fixed_time for op in batch)
        ledger.completed_batches += 1
        self._check_conservation(channel, ledger, "completion")
        # The balance only closes when every started batch has completed:
        # a successor batch may occupy the wire (or sit in the pipelined
        # fixed-latency shadow, where ``has_work`` is already False) with
        # its stats credited but its completion still pending.
        if (
            not channel.has_work
            and ledger.started_batches == ledger.completed_batches
        ):
            self._check_stats_balance(channel, ledger)

    def _check_stats_balance(
        self, channel: "DimensionChannel", ledger: _ChannelLedger
    ) -> None:
        """At idle, cumulative stats == sum over completed batches.

        Segment starts credit :class:`ChannelStats` and preemption debits
        it; when no work is left on the channel every credited segment
        belongs to a completed batch, so any residual means a debit/credit
        mismatch (lost or double-counted work).
        """
        self.checks_run += 1
        stats = channel.stats
        pairs = (
            (
                "transfer_seconds",
                stats.transfer_seconds,
                ledger.completed_transfer_seconds,
            ),
            ("bytes_sent", stats.bytes_sent, ledger.completed_bytes),
            ("fixed_seconds", stats.fixed_seconds, ledger.completed_fixed_seconds),
        )
        for name, credited, expected in pairs:
            tolerance = _CONSERVATION_RTOL * max(1.0, abs(expected))
            if abs(credited - expected) > tolerance:
                raise InvariantViolation(
                    "stats-balance",
                    f"ChannelStats.{name} diverged from completed batches "
                    "(preemption debit/credit mismatch)",
                    time=channel.engine.now,
                    dim_index=channel.dim_index,
                    context={
                        "credited": credited,
                        "expected": expected,
                        "batches": ledger.completed_batches,
                    },
                )

    def on_preempt(
        self, channel: "DimensionChannel", running: "_RunningBatch"
    ) -> None:
        """After a preemption debit: leftover work and stats stay sane."""
        self.checks_run += 1
        if running.remaining <= 0.0:
            raise InvariantViolation(
                "preemption-balance",
                "preempted batch retained no remaining transfer work",
                time=channel.engine.now,
                dim_index=channel.dim_index,
                context={"remaining": running.remaining},
            )
        stats = channel.stats
        slack = _CONSERVATION_RTOL * max(1.0, abs(stats.transfer_seconds))
        for name, value in (
            ("transfer_seconds", stats.transfer_seconds),
            ("fixed_seconds", stats.fixed_seconds),
            ("bytes_sent", stats.bytes_sent),
        ):
            if value < -slack:
                raise InvariantViolation(
                    "preemption-balance",
                    f"preemption debit drove ChannelStats.{name} negative",
                    time=channel.engine.now,
                    dim_index=channel.dim_index,
                    context={name: value},
                )

    def on_flows_rescheduled(
        self, channel: "DimensionChannel", flows: "dict[str, _FlowView]"
    ) -> None:
        """After a reweight: rates positive, live capacity respected.

        On a degraded wire the rates must sum to the live
        ``capacity_factor`` rather than 1.0, and on a *failed* wire
        (factor zero) every flow must be parked at rate exactly zero —
        a positive rate there would drain bytes through a dead link.
        """
        self.checks_run += 1
        if not flows:
            return
        capacity = channel.capacity_factor
        top_priority = max(flow.priority for flow in flows.values())
        total_rate = 0.0
        for owner, flow in flows.items():
            if capacity <= 0.0:
                if flow.rate != 0.0:
                    raise InvariantViolation(
                        "rate-capacity",
                        f"tenant {owner!r} drains through a failed link",
                        time=channel.engine.now,
                        dim_index=channel.dim_index,
                        context={"rate": flow.rate},
                    )
            elif flow.rate <= 0.0:
                # Under strict-priority sharing (the fluid backend's
                # preemption model) a lower-priority flow legitimately
                # parks at rate zero; a *top*-priority flow must drain.
                if not (
                    channel.priority_sharing
                    and flow.priority < top_priority
                ):
                    raise InvariantViolation(
                        "rate-capacity",
                        f"tenant {owner!r} assigned non-positive rate",
                        time=channel.engine.now,
                        dim_index=channel.dim_index,
                        context={"rate": flow.rate},
                    )
            if flow.remaining < -_RATE_ATOL:
                raise InvariantViolation(
                    "rate-capacity",
                    f"tenant {owner!r} has negative remaining work",
                    time=channel.engine.now,
                    dim_index=channel.dim_index,
                    context={"remaining": flow.remaining},
                )
            total_rate += flow.rate
        if total_rate > capacity + _RATE_ATOL:
            raise InvariantViolation(
                "rate-capacity",
                "share-weight rates exceed channel capacity",
                time=channel.engine.now,
                dim_index=channel.dim_index,
                context={
                    "total_rate": total_rate,
                    "capacity_factor": capacity,
                    "tenants": sorted(flows),
                },
            )

    def on_capacity_change(
        self, channel: "DimensionChannel", old: float, new: float
    ) -> None:
        """After a fault inject/restore: the factor stays in [0, 1] and the
        change moved no bytes (conservation holds across the transition).

        "Parked work resumes exactly once" needs no dedicated counter: a
        double resume would double-credit :class:`ChannelStats` and trip
        :meth:`_check_stats_balance` at idle, and a lost batch would leave
        ``admitted > completed + outstanding`` in the conservation check.
        """
        self.checks_run += 1
        if not 0.0 <= new <= 1.0 or new != new:
            raise InvariantViolation(
                "capacity-bounds",
                f"capacity factor left [0, 1]: {old} -> {new}",
                time=channel.engine.now,
                dim_index=channel.dim_index,
                context={"old": old, "new": new},
            )
        self._check_conservation(channel, self._ledger(channel), "capacity change")
