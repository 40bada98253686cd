"""The network simulator facade: submit collectives, run, collect results.

:class:`NetworkSimulator` glues together the scheduler (baseline or Themis),
the per-dimension channels, and the event engine.  It supports:

* multiple concurrent collectives sharing the dimension channels (real
  workloads overlap data-parallel All-Reduces with model-parallel traffic),
* collectives restricted to a subset of dimensions (``request.dim_indices``),
* optional enforcement of pre-simulated intra-dimension orders (Sec. 4.6.2),
* completion callbacks, used by the training-loop simulator,
* replaying a collective that runs alone from a recipe of an earlier solo
  run of its plan (:meth:`NetworkSimulator.start_solo`, :class:`SoloRecipe`).

Planning is shared with the packet backend: :class:`CollectivePlanner`
turns each request into a :class:`CollectivePlan` and its op costs behind
the sub-topology and plan caches, and :func:`build_chunk_ops` materializes
those costs as one executable op per (chunk, stage) without querying the
latency model.  :class:`NetworkBookkeeping` holds what the channel and
packet networks keep besides their wires: submissions, op records,
comm-active intervals and the fault schedule.  :class:`NetworkBackend`,
the base of every network, makes each network class its own registered
backend (see :mod:`repro.sim.backends`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar

from ..collectives.phases import Stage
from ..collectives.registry import algorithms_for_topology
from ..collectives.types import CollectiveRequest
from ..core.chunk import CollectivePlan
from ..core.latency_model import LatencyModel
from ..core.policies import (
    FifoPolicy,
    IntraDimPolicy,
    LargestChunkFirstPolicy,
    SmallestChunkFirstPolicy,
    get_policy,
)
from ..core.scheduler import SchedulerFactory
from ..errors import ConfigError, SimulationError
from ..numeric import ordered_sum
from ..topology import Topology
from ..typed import read
from .audit import InvariantAuditor, resolve_audit
from .engine import EventQueue
from .executor import DimensionChannel, FusionConfig, OpState, _RunningBatch
from .faults import (
    MIN_CAPACITY_FACTOR,
    FaultSchedule,
    LinkFault,
    ScaledLatencyModel,
    compose_factors,
)
from .timeline import Interval, OpRecord, merge_intervals, total_length


@dataclass
class CollectiveResult:
    """Completion summary for one collective."""

    request: CollectiveRequest
    plan: CollectivePlan | None
    issue_time: float
    completion_time: float = float("nan")

    @property
    def duration(self) -> float:
        return self.completion_time - self.issue_time

    @property
    def done(self) -> bool:
        return not math.isnan(self.completion_time)


@dataclass
class ExecutionResult:
    """Everything a simulation (finished or snapshotted) exposes to analysis.

    Produced by :meth:`NetworkSimulator.result`, which may be called mid-run:
    unfinished collectives then appear in ``collectives`` with a NaN
    ``completion_time`` and are excluded from the aggregate timings below.
    """

    topology: Topology
    records: list[OpRecord]
    collectives: list[CollectiveResult]
    dim_transfer_seconds: list[float]
    dim_busy_seconds: list[float]
    dim_bytes: list[float]
    dim_activity: list[list[Interval]]
    comm_active_intervals: list[Interval]
    #: Communication-active intervals per tenant (``request.owner``); the
    #: multi-job cluster simulator uses this to attribute network time to
    #: individual jobs.  Single-tenant runs have one ``""`` entry.
    comm_active_by_owner: dict[str, list[Interval]] = field(default_factory=dict)

    @property
    def completed_collectives(self) -> list[CollectiveResult]:
        """The collectives that finished by the time of this snapshot."""
        return [c for c in self.collectives if c.done]

    @property
    def pending_collectives(self) -> int:
        """How many submitted collectives had not completed at snapshot time."""
        return ordered_sum(1 for c in self.collectives if not c.done)

    @property
    def start_time(self) -> float:
        return min(c.issue_time for c in self.collectives)

    @property
    def completion_time(self) -> float:
        """Latest completion among *finished* collectives.

        Unfinished collectives carry ``completion_time = NaN``, and Python's
        ``max()`` over NaN is order-dependent — it would silently yield
        garbage for a mid-run snapshot.  They are skipped instead, and a
        snapshot in which nothing has completed raises a clear error.
        """
        done = [c.completion_time for c in self.collectives if c.done]
        if not done:
            raise SimulationError(
                "no collective has completed in this snapshot; "
                "completion_time/makespan are undefined until at least one "
                "collective finishes"
            )
        return max(done)

    @property
    def makespan(self) -> float:
        """Wall time from first issue to last (finished) completion."""
        return self.completion_time - self.start_time

    @property
    def comm_active_seconds(self) -> float:
        """Total time with at least one pending collective (paper Sec. 3)."""
        return total_length(self.comm_active_intervals)

    def comm_active_seconds_for(self, owner: str) -> float:
        """Total time ``owner`` had at least one collective in flight."""
        return total_length(self.comm_active_by_owner.get(owner, []))


def _check_not_past(
    engine: EventQueue, request: CollectiveRequest, issue_time: float
) -> None:
    """Reject submissions dated before the current simulation time.

    Without this, a stale ``at_time`` only surfaces later as a confusing
    scheduling error deep inside :class:`EventQueue`.  The tolerance is
    relative to the current time (see :meth:`EventQueue.past_tolerance`) so
    float round-off at large simulation times is not rejected.
    """
    if issue_time < engine.now - engine.past_tolerance():
        raise SimulationError(
            f"cannot submit {request.ctype.value} request "
            f"{request.request_id} (tag={request.tag!r}, "
            f"owner={request.owner!r}) at past time {issue_time}: "
            f"simulation time is already {engine.now}"
        )


class _CollectiveState:
    """Book-keeping for one in-flight collective."""

    __slots__ = ("result", "remaining_ops", "chunk_ops", "on_complete")

    def __init__(
        self,
        result: CollectiveResult,
        chunk_ops: list[list[OpState]],
        on_complete: Callable[[CollectiveResult], None] | None,
    ) -> None:
        self.result = result
        self.chunk_ops = chunk_ops
        self.remaining_ops = ordered_sum(len(ops) for ops in chunk_ops)
        self.on_complete = on_complete


#: One executable op's cost, in :class:`OpState`'s argument order: its
#: stage, the stage's parent dimension, and the bytes per NPU, transfer
#: seconds and fixed seconds the nominal :class:`LatencyModel` charges it.
OpCost = tuple[Stage, int, float, float, float]
#: A plan's op costs, indexed by chunk, then by stage.
PlanCosts = tuple[tuple[OpCost, ...], ...]
#: A wire's per-dimension transfer seconds, busy seconds, bytes sent and
#: activity intervals.
WireStats = tuple[list[float], list[float], list[float], list[list[Interval]]]
#: Intra-dimension policies whose sort keys read a time only to compare
#: it, so a certified replay (see :class:`SoloRecipe`) makes their choices.
_REPLAYABLE_POLICIES = (FifoPolicy, SmallestChunkFirstPolicy, LargestChunkFirstPolicy)
#: Certified recipes kept per plan key, newest first.  A start whose
#: newest recipe fails the certificate may pass an older one's.
_RECIPES_PER_PLAN = 4


class CollectivePlanner:
    """Plans submitted collectives; owns the sub-topology and plan caches.

    Each communicator's sub-topology and :class:`LatencyModel` are built
    once.  Load-independent plans are cached by request signature:
    schedulers are pure per collective (the Themis tracker resets every
    request), so training loops that resubmit identical collectives each
    iteration plan only once.  A plan's op costs are cached beside it: the
    latency model is a pure function of (op, size, dim), so they are
    computed once per key.  Only plain :class:`SchedulerFactory` instances
    are cached; subclasses (e.g. replay factories) may carry state and
    always plan afresh.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm_overrides: dict[int, str] | None = None,
    ) -> None:
        self.topology = topology
        #: ``{parent dim index: algorithm name}`` replacing Table 1 defaults.
        self.algorithm_overrides = dict(algorithm_overrides or {})
        self._subtopologies: dict[tuple, tuple[Topology, LatencyModel]] = {}
        self._plans: dict[tuple, tuple[CollectivePlan, PlanCosts]] = {}

    def subtopology(self, request: CollectiveRequest) -> tuple[Topology, LatencyModel]:
        """The request's communicator sub-topology and its latency model."""
        key = request.communicator_key
        cached = self._subtopologies.get(key)
        if cached is not None:
            return cached
        if request.dim_indices is None:
            subtopo = self.topology
        else:
            subtopo = self.topology.communicator(
                request.dim_indices, request.peer_counts
            )
        local_overrides = {
            local: self.algorithm_overrides[parent]
            for local, parent in enumerate(subtopo.parent_indices)
            if parent in self.algorithm_overrides
        }
        model = LatencyModel(
            subtopo, algorithms_for_topology(subtopo, local_overrides)
        )
        self._subtopologies[key] = (subtopo, model)
        return subtopo, model

    def plan(
        self,
        request: CollectiveRequest,
        factory: SchedulerFactory,
        factors: tuple[float, ...],
        now: float,
    ) -> tuple[CollectivePlan, tuple | None, PlanCosts]:
        """Plan ``request`` issued at ``now``.

        Returns ``(plan, cache key, op costs)``.  ``factors`` are the live
        per-dimension capacity factors.  They are part of the planning
        input: a degraded dimension must look expensive to a
        bandwidth-aware scheduler, so plans made under different fault
        states never share a cache slot.  The op costs hold one
        :data:`OpCost` per (chunk, stage) from the nominal model, since
        the wire, not the op, carries a fault.  The key is ``None`` for a
        factory that is never cached.
        """
        subtopo, model = self.subtopology(request)
        key: tuple | None = None
        if type(factory) is SchedulerFactory:
            # A chunk's dimension order never depends on issue time,
            # priority, or owner: the signature is the whole planning input.
            key = (
                factory.signature,
                request.ctype,
                request.size,
                request.communicator_key,
            )
        degraded = any(factor != 1.0 for factor in factors)
        if degraded and key is not None:
            key = key + (factors,)
        cached = self._plans.get(key) if key is not None else None
        if cached is not None:
            # The chunk schedules and op costs are shared; only the
            # identity fields are re-stamped for this submission.
            plan, costs = cached
            plan = replace(plan, request=request, issue_time=now, metadata={})
            return plan, key, costs
        scheduler = factory.create()
        plan_model: LatencyModel = model
        if degraded:
            local = tuple(
                factors[subtopo.parent_index(i)] for i in range(subtopo.ndims)
            )
            if any(factor != 1.0 for factor in local):
                plan_model = ScaledLatencyModel(model, local)
        plan = scheduler.plan(request, subtopo, plan_model, issue_time=now)
        # A chunk's costs depend only on its size and order, and equal
        # chunks have at most D! orders: cost each distinct one once.
        rows: dict[tuple[float, tuple[int, ...]], tuple[OpCost, ...]] = {}
        for chunk in plan.chunks:
            shape = (chunk.size, chunk.dim_order)
            if shape not in rows:
                rows[shape] = tuple(
                    (
                        stage,
                        subtopo.parent_index(stage.dim_index),
                        model.bytes_per_npu(
                            stage.op, stage.stage_size, stage.dim_index
                        ),
                        model.chunk_load(stage.op, stage.stage_size, stage.dim_index),
                        model.fixed_latency(stage.op, stage.dim_index),
                    )
                    for stage in chunk.stages
                )
        costs = tuple(rows[chunk.size, chunk.dim_order] for chunk in plan.chunks)
        if key is not None:
            self._plans[key] = (plan, costs)
        return plan, key, costs


class SoloRecipe:
    """One collective's run alone on idle serial wires, replayable from
    any start time (see :meth:`NetworkSimulator.start_solo`).

    A recipe records itself: :class:`NetworkSimulator` attaches it to every
    channel while the collective is simulated, and :meth:`freeze` then
    makes it replayable.  Event 0 is the collective's start.  Every later
    event, in firing order, is one batch's wire release or completion.
    Each is timed from the event its batch started in, as
    :meth:`DimensionChannel._start_segment` times it: ``(t + fixed) +
    wall`` for a completion and ``t + wall`` for a release.
    :meth:`times_from` recomputes every event time from a new start with
    those same float operations.  :meth:`credit` adds the rest, which does
    not depend on time: each channel's statistics and outstanding-byte
    changes, in the recorded order, and its activity intervals, held as
    (opening event, closing event) pairs.

    **Why a certified replay is the simulation.**  The recomputed times
    are certified when they never decrease in firing order and are equal
    exactly where the recorded times were equal.  Then any two events
    compare the same way as in the recording.  The engine orders events
    by ``(time, seq)``, and ``seq`` follows scheduling order.  So, by
    induction over the events, the engine fires the same callbacks in the
    same order, each schedules the same events in the same order, and
    every comparison a callback makes comes out as recorded.  The run
    reads a time only to compare it with another event time: the heap
    order, the built-in policies' ``ready_time`` keys, ``now >
    active_since`` when an activity interval closes, and the comm-active
    bookkeeping.  The only float values derived from times are the event
    times themselves, which are recomputed with the recorded operations.
    Everything else the wire adds is time-independent and is replayed in
    the recorded order, so every total rounds as it did.  The replay's
    end state is therefore the event loop's, bit for bit.  It differs only
    in the events the engine did not fire.
    """

    __slots__ = (
        "engine",
        "fired_before",
        "intervals_before",
        "times",
        "events",
        "batches",
        "credits",
        "outstanding",
        "intervals",
        "completion",
    )

    def __init__(self, engine: EventQueue, channels: list[DimensionChannel]) -> None:
        """Start recording the collective that starts now."""
        self.engine = engine
        #: The engine's fired-event count, and each channel's number of
        #: activity intervals, when the recording started.
        self.fired_before = engine.events_processed
        self.intervals_before = [
            len(channel.stats.activity_intervals) for channel in channels
        ]
        #: Each event's time as it fired.
        self.times = [engine.now]
        #: Per event after the start: ``(origin, fixed, wall, tied)``, so
        #: that it fired at ``times[origin] + fixed + wall``, and ``tied``:
        #: at the same time as the event before it.  ``origin`` is the
        #: event its batch started in.  A release is recorded with a fixed
        #: latency of ``0.0``: ``t + 0.0`` is ``t`` exactly for every ``t``
        #: but ``-0.0``, which a clock starting at ``0.0`` never reads.
        self.events: list[tuple[int, float, float, bool]] = []
        #: Per batch, in start order: ``(origin, fixed, wall)``.
        self.batches: list[tuple[int, float, float]] = []
        #: Per channel, per batch in start order: the statistics it
        #: credited, ``(transfer seconds, fixed seconds, bytes, ops)``.
        self.credits: list[list[tuple[float, float, float, int]]] = [
            [] for _ in channels
        ]
        #: Per channel: each change to its outstanding bytes, in order.
        self.outstanding: list[list[float]] = [[] for _ in channels]
        #: Set by :meth:`freeze`: per channel, its activity intervals as
        #: (opening event, closing event) pairs, and the event the
        #: collective completed in.
        self.intervals: list[list[tuple[int, int]]] = []
        self.completion = 0

    def batch_started(
        self, dim_index: int, running: _RunningBatch, nbytes: float, wall: float
    ) -> None:
        running.recipe_index = len(self.batches)
        self.batches.append((len(self.times) - 1, running.fixed, wall))
        self.credits[dim_index].append(
            (running.remaining, running.fixed, nbytes, len(running.batch))
        )

    def fired(self, running: _RunningBatch, completion: bool) -> None:
        origin, fixed, wall = self.batches[running.recipe_index]
        times = self.times
        times.append(self.engine.now)
        self.events.append(
            (origin, fixed if completion else 0.0, wall, times[-1] == times[-2])
        )

    def freeze(self, channels: list[DimensionChannel], completion_time: float) -> bool:
        """End the recording of a collective that completed at
        ``completion_time``; returns whether the recipe replays its own
        times."""
        times = self.times
        # Every event at one recorded time gets the same certified time,
        # so a time maps to the first event at it.
        first: dict[float, int] = {}
        for index, time in enumerate(times):
            first.setdefault(time, index)
        self.intervals = [
            [
                (first[interval.start], first[interval.end])
                for interval in channel.stats.activity_intervals[before:]
            ]
            for channel, before in zip(channels, self.intervals_before)
        ]
        self.completion = first[completion_time]
        return self.times_from(times[0]) == times

    def times_from(self, start: float) -> list[float] | None:
        """Every event time from ``start``, or ``None`` when the times
        fail the certificate (see the class docstring)."""
        times = [start]
        previous = start
        for origin, fixed, wall, tied in self.events:
            time = times[origin] + fixed + wall
            if tied:
                # The certificate is exact: a recorded tie stays a tie.
                if time != previous:  # replint: ignore[RPL005]
                    return None
            elif time <= previous:
                return None
            times.append(time)
            previous = time
        return times

    def credit(self, channels: list[DimensionChannel], times: list[float]) -> None:
        """Apply the run's effect on every channel, timed by ``times``."""
        for channel, credits, outstanding, intervals in zip(
            channels, self.credits, self.outstanding, self.intervals
        ):
            timed = [Interval(times[start], times[end]) for start, end in intervals]
            channel.credit_replay(credits, outstanding, timed)


def build_chunk_ops(
    request: CollectiveRequest, costs: PlanCosts
) -> list[list[OpState]]:
    """One executable op per (chunk, stage) of ``costs``, indexed by chunk."""
    seq, priority, owner = request.request_id, request.priority, request.owner
    return [
        [
            OpState(seq, chunk_id, stage_index, *cost, priority, owner)
            for stage_index, cost in enumerate(chunk)
        ]
        for chunk_id, chunk in enumerate(costs)
    ]


class NetworkBackend:
    """A network-fidelity model: each network class is its own backend.

    Its class attributes name it in the ``backend`` registry and say what
    it supports, so a spec that needs more is rejected before any run.
    """

    #: Registry key (``"analytical"``, ``"fluid"``, ``"ideal"``, ``"packet"``).
    key: ClassVar[str] = ""
    #: One-line description for ``themis-sim registry`` and the docs.
    description: ClassVar[str] = ""
    #: Whether ``submit`` accepts a per-request ``scheduler=`` factory.
    accepts_scheduler: ClassVar[bool] = False
    #: Whether the network exposes ``result() -> ExecutionResult``.
    provides_result: ClassVar[bool] = False
    #: Whether :class:`~repro.sim.faults.FaultSchedule` can be applied.
    supports_faults: ClassVar[bool] = False
    #: Whether weighted per-tenant sharing / priority preemption exist
    #: (``set_tenant_weights`` / ``enable_preemption``).
    supports_sharing: ClassVar[bool] = False
    #: Whether the multi-job cluster simulator can run on this backend
    #: (needs per-owner accounting and per-request schedulers).
    supports_cluster: ClassVar[bool] = False
    #: The dataclass of the backend's ``backend_options``; ``None``: none.
    options_type: ClassVar[type[Any] | None] = None

    @classmethod
    def build(
        cls,
        topology: Topology,
        *,
        scheduler: SchedulerFactory | None = None,
        policy: str | IntraDimPolicy = "SCF",
        fusion: FusionConfig | None = None,
        engine: EventQueue | None = None,
        record_ops: bool = True,
        audit: bool | None = None,
        options: dict[str, Any] | None = None,
    ) -> Any:
        """This backend's network for ``topology``.

        Every argument goes on to the constructor, ``options`` parsed by
        :meth:`validate_options`; a network whose constructor takes fewer
        arguments overrides this and ignores the knobs it has no use for.
        """
        parsed = cls.validate_options(options)
        extra = {} if parsed is None else {"options": parsed}
        # The arguments are for a subclass's constructor; this class has none.
        construct: Callable[..., NetworkBackend] = cls
        return construct(
            topology,
            scheduler=scheduler,
            policy=policy,
            fusion=fusion,
            engine=engine,
            record_ops=record_ops,
            audit=audit,
            **extra,
        )

    @classmethod
    def validate_options(cls, options: dict[str, Any] | None) -> Any:
        """The :attr:`options_type` instance a ``backend_options`` document
        describes; specs call this too, so a bad document fails early.

        The document is read by :func:`repro.typed.read`: an unknown key
        gets a did-you-mean hint, and each value must have its option's
        type (``"false"`` is no bool; an int is a float).
        """
        if cls.options_type is None:
            if options:
                raise ConfigError(
                    f"backend {cls.key!r} accepts no options, got: "
                    f"{', '.join(sorted(options))}"
                )
            return None
        return read(cls.options_type, options or {}, f"{cls.key} backend options")


class NetworkBookkeeping(NetworkBackend):
    """What the channel and packet networks keep besides their wires.

    It holds the planner, the submitted collectives, the op records, the
    comm-active intervals (overall and per owner) and the fault schedule,
    and snapshots them as an :class:`ExecutionResult`.  A subclass owns
    the wire: it starts each submitted collective, calls
    :meth:`_finish_collective` when its last op completes, applies
    capacity changes in :meth:`_apply_capacity`, and reports its
    per-dimension statistics from :meth:`_wire_stats`.
    """

    def __init__(
        self,
        topology: Topology,
        scheduler: SchedulerFactory | None,
        engine: EventQueue | None,
        record_ops: bool,
        audit: bool | None,
        algorithm_overrides: dict[int, str] | None,
    ) -> None:
        self.topology = topology
        self.scheduler_factory = scheduler or SchedulerFactory("themis")
        self.engine = engine or EventQueue()
        self.planner = CollectivePlanner(topology, algorithm_overrides)
        self.record_ops = record_ops
        #: Runtime invariant auditor — ``None`` unless requested via the
        #: ``audit`` parameter or ``THEMIS_AUDIT=1`` (see repro.sim.audit).
        self.auditor: InvariantAuditor | None = None
        if resolve_audit(audit):
            # Simulators sharing one engine share its auditor so engine-level
            # checks stay consistent across co-tenants.
            self.auditor = self.engine.auditor or InvariantAuditor()
            self.engine.auditor = self.auditor
        self._states: dict[int, _CollectiveState] = {}
        self._results: list[CollectiveResult] = []
        self._records: list[OpRecord] = []
        self._records_sorted = True
        self._comm_active_since: float | None = None
        self._comm_active: list[Interval] = []
        self._owner_inflight: dict[str, int] = {}
        self._owner_active_since: dict[str, float] = {}
        self._owner_active: dict[str, list[Interval]] = {}
        #: Applied capacity changes, in order: ``(time, dim, new factor)``.
        self.fault_timeline: list[tuple[float, int, float]] = []
        #: Per-dimension live faults (fault id -> factor); overlapping
        #: faults compose as the product, recomputed from the survivors at
        #: every start/end (never divided out).
        self._active_faults: list[dict[int, float]] = [{} for _ in topology.dims]
        self._fault_seq = 0

    # --- fault injection ----------------------------------------------------
    def apply_fault(self, fault: LinkFault) -> None:
        """Schedule one capacity fault (and its restoration) on the engine.

        At ``fault.start`` the dimension's capacity factor becomes the
        product of every fault live on it; at ``fault.end`` (if any) the
        product of the survivors is recomputed and re-applied (see the
        backend's :meth:`_apply_capacity`).  Themis's per-request load
        tracker plans against the degraded :class:`ScaledLatencyModel`
        while the fault is live — bandwidth awareness is exactly what is
        under test here.
        """
        ndims = self.topology.ndims
        if not 0 <= fault.dim_index < ndims:
            raise ConfigError(
                f"fault targets dimension {fault.dim_index} but the "
                f"topology has {ndims} dimension(s)"
            )
        if fault.start < self.engine.now:
            raise ConfigError(
                f"fault starts at {fault.start} but the simulation is "
                f"already at {self.engine.now}"
            )
        fault_id = self._fault_seq
        self._fault_seq += 1
        self.engine.schedule(
            fault.start, lambda: self._set_fault(fault_id, fault, True)
        )
        end = fault.end
        if end is not None:
            self.engine.schedule(end, lambda: self._set_fault(fault_id, fault, False))

    def apply_fault_schedule(self, schedule: FaultSchedule) -> None:
        """Apply every event of a :class:`FaultSchedule` (validated against
        this topology's dimension count)."""
        for fault in schedule.restricted_to(self.topology.ndims).events:
            self.apply_fault(fault)

    def _set_fault(self, fault_id: int, fault: LinkFault, live: bool) -> None:
        faults = self._active_faults[fault.dim_index]
        if live:
            faults[fault_id] = fault.factor
        else:
            faults.pop(fault_id, None)
        factor = compose_factors(faults)
        self.fault_timeline.append((self.engine.now, fault.dim_index, factor))
        self._apply_capacity(fault.dim_index, factor)

    def _apply_capacity(self, dim_index: int, factor: float) -> None:
        """Run dimension ``dim_index``'s wire at capacity ``factor``."""
        raise NotImplementedError

    # --- comm-active accounting ---------------------------------------------
    def _register_collective(self, state: _CollectiveState) -> None:
        """Track ``state`` as in flight from now on (comm-active)."""
        now = self.engine.now
        owner = state.result.request.owner
        self._states[state.result.request.request_id] = state
        if self._comm_active_since is None:
            self._comm_active_since = now
        self._owner_inflight[owner] = self._owner_inflight.get(owner, 0) + 1
        if owner not in self._owner_active_since:
            self._owner_active_since[owner] = now

    def _finish_collective(self, state: _CollectiveState) -> None:
        """Complete ``state`` now and close its comm-active intervals."""
        now = self.engine.now
        state.result.completion_time = now
        request = state.result.request
        owner = request.owner
        del self._states[request.request_id]
        if not self._states and self._comm_active_since is not None:
            if now > self._comm_active_since:
                self._comm_active.append(Interval(self._comm_active_since, now))
            self._comm_active_since = None
        self._owner_inflight[owner] -= 1
        if self._owner_inflight[owner] == 0:
            since = self._owner_active_since.pop(owner)
            if now > since:
                self._owner_active.setdefault(owner, []).append(Interval(since, now))
        if state.on_complete is not None:
            state.on_complete(state.result)

    # --- running --------------------------------------------------------------
    def _check_drained(self) -> None:
        """Raise if collectives are still in flight once the engine is idle."""
        if not self._states:
            return
        # A factor below MIN_CAPACITY_FACTOR runs as a failure.
        dead = [
            dim_index
            for dim_index, faults in enumerate(self._active_faults)
            if compose_factors(faults) < MIN_CAPACITY_FACTOR
        ]
        hint = (
            f"; dimension(s) {dead} have zero capacity (failed links "
            "with no restore event) — in-flight work is parked forever"
            if dead
            else ""
        )
        raise SimulationError(
            f"{len(self._states)} collectives never completed "
            f"(deadlock or missing events){hint}"
        )

    def _wire_stats(self) -> WireStats:
        """The wire's per-dimension statistics for :meth:`result`."""
        raise NotImplementedError

    @property
    def collectives_submitted(self) -> int:
        """How many collectives were submitted so far."""
        return len(self._results)

    def result(self) -> ExecutionResult:
        """Snapshot results at the current simulation time.

        Safe to call mid-run: open activity and comm-active intervals are
        closed *in the snapshot only* (internal accounting is untouched, so
        the simulation can keep running afterwards), and collectives still
        in flight keep their NaN ``completion_time`` — the aggregate
        :class:`ExecutionResult` timings skip them.
        """
        if not self._results:
            raise SimulationError("no collectives were submitted")
        now = self.engine.now
        comm_active = list(self._comm_active)
        if self._comm_active_since is not None and now > self._comm_active_since:
            comm_active.append(Interval(self._comm_active_since, now))
        by_owner = {
            owner: list(intervals) for owner, intervals in self._owner_active.items()
        }
        for owner, since in self._owner_active_since.items():
            if now > since:
                by_owner.setdefault(owner, []).append(Interval(since, now))
        # Records are sorted lazily, once per batch of appends: repeated
        # mid-run snapshots re-sort only what arrived since the last one
        # (timsort on the nearly sorted list), and record-free cluster
        # sweeps skip the O(n log n) entirely.
        if not self._records_sorted:
            self._records.sort(key=lambda r: (r.start_time, r.dim_index))
            self._records_sorted = True
        transfer, busy, nbytes, activity = self._wire_stats()
        return ExecutionResult(
            topology=self.topology,
            records=list(self._records),
            collectives=list(self._results),
            dim_transfer_seconds=transfer,
            dim_busy_seconds=busy,
            dim_bytes=nbytes,
            dim_activity=[merge_intervals(intervals) for intervals in activity],
            comm_active_intervals=merge_intervals(comm_active),
            comm_active_by_owner={
                owner: merge_intervals(intervals)
                for owner, intervals in sorted(by_owner.items())
            },
        )


class NetworkSimulator(NetworkBookkeeping):
    """Event-driven network that executes scheduled collectives.

    It is the default ``"analytical"`` backend, the paper's Sec. 4.4 model.

    Parameters
    ----------
    topology:
        The platform (all dimensions).
    scheduler:
        A :class:`SchedulerFactory`; fresh scheduler per collective.
    policy:
        Intra-dimension policy name or instance (``"FIFO"``, ``"SCF"``...).
    fusion:
        Chunk-op fusion configuration (Sec. 4.3); enabled by default.
    engine:
        Optional shared :class:`EventQueue` (the training simulator passes
        its own so compute and communication share one clock).
    enforce_consistency:
        When True, each collective's intra-dimension op order is fixed by a
        deterministic pre-simulation and enforced at runtime (Sec. 4.6.2).
    algorithm_overrides:
        Optional ``{parent dim index: algorithm name}`` map replacing the
        Table 1 defaults — e.g. ``{2: "SwitchOffload"}`` to model in-network
        collective offload on dim3 (Sec. 4.5), or ``{0: "Tree"}`` for
        ablations.
    record_ops:
        When True (default), every completed chunk op leaves an
        :class:`OpRecord` in ``result().records`` — right for single-job
        analysis (timelines, Fig. 5/9 reproductions).  Cluster sweeps with
        hundreds of jobs and training runs turn it off: the per-op list
        grows without bound and none of their metrics read it.

    Plans and their op costs come from a :class:`CollectivePlanner`,
    cached by request signature; enforced intra-dimension orders are cached
    under the same key, which also skips the per-iteration consistency
    pre-simulation.
    """

    key = "analytical"
    description = (
        "paper bandwidth model: per-dimension fluid channels, "
        "alpha-beta op latency (default)"
    )
    accepts_scheduler = True
    provides_result = True
    supports_faults = True
    supports_sharing = True
    supports_cluster = True

    def __init__(
        self,
        topology: Topology,
        scheduler: SchedulerFactory | None = None,
        policy: str | IntraDimPolicy = "SCF",
        fusion: FusionConfig | None = None,
        engine: EventQueue | None = None,
        enforce_consistency: bool = False,
        algorithm_overrides: dict[int, str] | None = None,
        record_ops: bool = True,
        audit: bool | None = None,
    ) -> None:
        super().__init__(
            topology, scheduler, engine, record_ops, audit, algorithm_overrides
        )
        self.policy = (
            policy if isinstance(policy, IntraDimPolicy) else get_policy(policy)
        )
        self.fusion = fusion or FusionConfig()
        self.enforce_consistency = enforce_consistency
        self.channels = [
            DimensionChannel(
                i,
                dim,
                self.policy,
                self.fusion,
                self.engine,
                self._on_batch_done,
            )
            for i, dim in enumerate(topology.dims)
        ]
        if self.auditor is not None:
            for channel in self.channels:
                channel.auditor = self.auditor
        #: ``plan key -> {parent dim: [(chunk_id, stage_index), ...]}`` —
        #: enforced orders with the request id stripped, re-stamped per
        #: submission (op keys embed the submitting request's id).
        self._order_cache: dict[tuple, dict[int, list[tuple[int, int]]]] = {}
        #: ``plan key -> [SoloRecipe, ...]``: the plan's newest runs alone,
        #: newest first, which :meth:`start_solo` replays.
        self._recipes: dict[tuple, list[SoloRecipe]] = {}
        #: The collective :meth:`start_solo` marked to run alone.
        self._solo: CollectiveResult | None = None
        #: The collective being recorded: its plan key, result and recipe.
        self._recording: tuple[tuple, CollectiveResult, SoloRecipe] | None = None

    # --- fairness (multi-tenant wire disciplines) ---------------------------
    def set_tenant_weights(
        self,
        weights: dict[str, "float | dict[int, float]"],
        default: float = 1.0,
    ) -> None:
        """Enable/update weighted per-tenant bandwidth sharing on every dim.

        ``weights`` maps ``request.owner`` to a positive share — either one
        scalar applied on every dimension, or a ``{dim index: weight}`` map
        giving that tenant a *different* share per dimension (a job can be
        favored on the scarce NIC dimension while yielding intra-node).
        Owners absent from the map, and dimensions absent from a tenant's
        per-dim map, get ``default``.  Concurrent batches from different
        tenants then split each dimension's bandwidth in proportion to their
        weights (GPS-style fluid sharing) instead of serializing first-come.
        Safe to call repeatedly mid-run — the cluster finish-time-fairness
        policy re-tunes weights periodically.
        """
        for owner, value in weights.items():
            if isinstance(value, dict):
                for dim_index in value:
                    if not 0 <= dim_index < len(self.channels):
                        raise ConfigError(
                            f"tenant {owner!r}: dimension index {dim_index} "
                            f"out of range for {len(self.channels)}D topology"
                        )
        for channel in self.channels:
            flat = {
                owner: (
                    value.get(channel.dim_index, default)
                    if isinstance(value, dict)
                    else value
                )
                for owner, value in weights.items()
            }
            channel.set_share_weights(flat, default)

    def enable_preemption(self) -> None:
        """Arm priority preemption on every dimension channel.

        A ready op whose priority strictly exceeds the running batch's
        pauses that batch; its leftover transfer re-runs once the wire frees
        (work-conserving — nothing is lost or re-sent).
        """
        for channel in self.channels:
            channel.enable_preemption()

    @property
    def preemption_count(self) -> int:
        """Total batch preemptions across all dimensions."""
        return ordered_sum(channel.preemption_count for channel in self.channels)

    # --- fault injection ----------------------------------------------------
    def _apply_capacity(self, dim_index: int, factor: float) -> None:
        """In-flight work re-segments at the change (see
        :meth:`DimensionChannel.set_capacity_factor`); a factor of zero
        parks it until a restore."""
        self.channels[dim_index].set_capacity_factor(factor)

    # --- submission ---------------------------------------------------------
    def submit(
        self,
        request: CollectiveRequest,
        at_time: float | None = None,
        on_complete: Callable[[CollectiveResult], None] | None = None,
        scheduler: SchedulerFactory | None = None,
    ) -> CollectiveResult:
        """Issue a collective at ``at_time`` (default: current sim time).

        ``scheduler`` optionally overrides the simulator-wide factory for
        this one request — multi-tenant callers (the cluster simulator) use
        it to give each job its own scheduling policy on the shared network.

        Returns the (initially incomplete) :class:`CollectiveResult`; its
        ``completion_time`` is filled in when the collective finishes.
        """
        issue_time = self.engine.now if at_time is None else at_time
        _check_not_past(self.engine, request, issue_time)
        result = CollectiveResult(request=request, plan=None, issue_time=issue_time)
        self._results.append(result)
        self.engine.schedule(
            issue_time,
            lambda: self._start_collective(result, on_complete, scheduler),
        )
        return result

    def _start_collective(
        self,
        result: CollectiveResult,
        on_complete: Callable[[CollectiveResult], None] | None,
        scheduler_factory: SchedulerFactory | None = None,
    ) -> None:
        request = result.request
        plan, plan_key, costs = self.planner.plan(
            request,
            scheduler_factory or self.scheduler_factory,
            tuple(channel.capacity_factor for channel in self.channels),
            self.engine.now,
        )
        result.plan = plan
        if self._solo is result:
            self._solo = None
            if on_complete is None and plan_key is not None:
                if self._replay(result, plan_key):
                    return
                self._record(result, plan_key)

        chunk_ops = self._build_chunk_ops(request, costs, plan_key)

        state = _CollectiveState(result, chunk_ops, on_complete)
        self._register_collective(state)

        if self.enforce_consistency:
            self._install_enforced_orders(state, plan_key)

        for ops in chunk_ops:
            self.channels[ops[0].parent_dim].enqueue(ops[0])

    def _build_chunk_ops(
        self, request: CollectiveRequest, costs: PlanCosts, plan_key: tuple | None
    ) -> list[list[OpState]]:
        """Materialize the plan's op costs as executable channel ops.

        The execution-granularity hook: the exact simulator emits one op
        per (chunk, stage) so every pipelining and contention boundary is
        an event; the fluid backend overrides this to collapse the chunk
        train into aggregate per-dimension flows, cached under
        ``plan_key``.  Op lists are indexed by ``chunk_id``
        (``_on_batch_done`` advances ``chunk_ops[op.chunk_id]`` to the
        next stage), so overrides must keep ``chunk_id`` equal to the op
        list's position.
        """
        return build_chunk_ops(request, costs)

    def _install_enforced_orders(
        self, state: _CollectiveState, plan_key: tuple | None
    ) -> None:
        """Pre-simulate this collective alone and lock per-dim op orders.

        The pre-simulation depends only on the plan (and the simulator-wide
        policy/fusion), so its result is cached under the same signature as
        the plan itself — repeated submissions of an identical collective
        re-stamp the cached order with their request id instead of
        re-running the whole consistency simulation.
        """
        generic = self._order_cache.get(plan_key) if plan_key is not None else None
        if generic is None:
            from ..core.consistency import presimulate_intra_dim_orders

            orders = presimulate_intra_dim_orders(
                state.result.plan,
                self.topology,
                policy=self.policy,
                fusion=self.fusion,
            )
            generic = {
                dim_index: [
                    (chunk_id, stage_index)
                    for _, chunk_id, stage_index in keys
                ]
                for dim_index, keys in orders.items()
            }
            if plan_key is not None:
                self._order_cache[plan_key] = generic
        request_id = state.result.request.request_id
        for dim_index, pairs in generic.items():
            self.channels[dim_index].set_enforced_order(
                request_id,
                [
                    (request_id, chunk_id, stage_index)
                    for chunk_id, stage_index in pairs
                ],
            )

    # --- replaying a collective that runs alone ------------------------------
    def start_solo(self, result: CollectiveResult) -> bool:
        """Mark ``result``'s collective if it runs alone.  When its start
        event fires, it is replayed from the newest of its plan's recipes
        (:class:`SoloRecipe`) whose times pass the certificate at that
        start.  Otherwise it is simulated as usual, and that run joins its
        plan's recipes (the newest :data:`_RECIPES_PER_PLAN` are kept).

        The caller must then fire events until the collective completes,
        then every event at its completion instant, and then call
        :meth:`end_solo`.  ``TrainingSimulator`` does so when it waits on
        a collective.  A replay fires one event, the collective's start,
        which leaves the collective complete and ``now`` at its completion.

        Returns ``False``, having changed nothing, unless the collective
        runs alone.  That is: it is the last one submitted to this network
        and has not started; its start event is the engine's only pending
        event; no collective is in flight; every channel is an idle serial
        wire at full capacity, without share weights or preemption; there
        is no auditor, no op recording and no enforced order; and the
        policy is a built-in one.  A collective with a completion callback
        or an uncacheable plan is then simulated without a recording.
        """
        if not self._runs_alone(result):
            return False
        self._solo = result
        return True

    def end_solo(self) -> None:
        """Finish what :meth:`start_solo` began: a recorded run that
        replays its own times becomes its plan's newest recipe."""
        if self._recording is None:
            return
        plan_key, result, recipe = self._recording
        self._recording = None
        for channel in self.channels:
            channel.recipe = None
        fired = self.engine.events_processed - recipe.fired_before
        if self.engine.pending or fired != len(recipe.events):
            return  # something besides the collective's wire ran or is due
        if recipe.freeze(self.channels, result.completion_time):
            recipes = self._recipes.setdefault(plan_key, [])
            recipes.insert(0, recipe)
            del recipes[_RECIPES_PER_PLAN:]

    def _runs_alone(self, result: CollectiveResult) -> bool:
        return (
            bool(self._results)
            and self._results[-1] is result
            and result.plan is None
            and self.engine.pending == 1
            and not self._states
            and self.auditor is None
            and not self.record_ops
            and not self.enforce_consistency
            and type(self.policy) in _REPLAYABLE_POLICIES
            and all(
                not channel.has_work
                and channel.capacity_factor == 1.0
                and channel.share_weights is None
                and not channel.preemption_enabled
                for channel in self.channels
            )
        )

    def _replay(self, result: CollectiveResult, plan_key: tuple) -> bool:
        """Replay the collective starting now from the newest of its
        plan's recipes whose times pass the certificate from now."""
        for recipe in self._recipes.get(plan_key, ()):
            times = recipe.times_from(self.engine.now)
            if times is None:
                continue
            state = _CollectiveState(result, [], None)
            self._register_collective(state)
            recipe.credit(self.channels, times)
            self.engine.now = times[recipe.completion]
            self._finish_collective(state)
            return True
        return False

    def _record(self, result: CollectiveResult, plan_key: tuple) -> None:
        """Record the collective starting now as it is simulated."""
        recipe = SoloRecipe(self.engine, self.channels)
        for channel in self.channels:
            channel.recipe = recipe
        self._recording = (plan_key, result, recipe)

    # --- progression ----------------------------------------------------------
    def _on_batch_done(self, channel: DimensionChannel, batch: list[OpState]) -> None:
        records = self._records if self.record_ops else None
        states = self._states
        channels = self.channels
        for op in batch:
            if records is not None:
                records.append(op.to_record())
                self._records_sorted = False
            state = states[op.collective_seq]
            ops = state.chunk_ops[op.chunk_id]
            next_index = op.stage_index + 1
            if next_index < len(ops):
                next_op = ops[next_index]
                channels[next_op.parent_dim].enqueue(next_op)
            state.remaining_ops -= 1
            if state.remaining_ops == 0:
                self._finish_collective(state)

    # --- running ----------------------------------------------------------------
    def run(self, max_events: int | None = None) -> ExecutionResult:
        """Run the engine to quiescence and package the results."""
        self.engine.run(max_events=max_events)
        self._check_drained()
        return self.result()

    def _wire_stats(self) -> WireStats:
        """The channels' statistics.

        Caveat for mid-run snapshots: ``dim_busy_seconds`` / ``dim_bytes``
        are batch-granular (credited in full when a batch *starts*), so a
        snapshot taken while a batch is mid-transfer counts that batch's
        whole transfer against an active window that has only partially
        elapsed.  The skew is bounded by one batch per dimension and is
        zero once the engine is quiescent.
        """
        channels = self.channels
        transfer = [c.stats.transfer_seconds for c in channels]
        return (
            transfer,
            list(transfer),  # a channel's wire is busy exactly while it transfers
            [c.stats.bytes_sent for c in channels],
            [c.snapshot_activity() for c in channels],
        )
