"""The network simulator facade: submit collectives, run, collect results.

:class:`NetworkSimulator` glues together the scheduler (baseline or Themis),
the per-dimension channels, and the event engine.  It supports:

* multiple concurrent collectives sharing the dimension channels (real
  workloads overlap data-parallel All-Reduces with model-parallel traffic),
* collectives restricted to a subset of dimensions (``request.dim_indices``),
* optional enforcement of pre-simulated intra-dimension orders (Sec. 4.6.2),
* completion callbacks, used by the training-loop simulator.

Planning is shared with the packet backend: :class:`CollectivePlanner`
turns each request into a :class:`CollectivePlan` behind the sub-topology
and plan caches, and :func:`build_chunk_ops` materializes a plan as one
executable op per (chunk, stage).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from ..collectives.registry import algorithms_for_topology
from ..collectives.types import CollectiveRequest
from ..core.chunk import CollectivePlan
from ..core.latency_model import LatencyModel
from ..core.policies import IntraDimPolicy, get_policy
from ..core.scheduler import SchedulerFactory
from ..errors import ConfigError, SimulationError
from ..topology import Topology
from .audit import InvariantAuditor, resolve_audit
from .engine import EventQueue
from .executor import DimensionChannel, FusionConfig, OpState
from .faults import (
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
        return sum(1 for c in self.collectives if not c.done)

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
        self.remaining_ops = sum(len(ops) for ops in chunk_ops)
        self.on_complete = on_complete


class CollectivePlanner:
    """Plans submitted collectives; owns the sub-topology and plan caches.

    Each communicator's sub-topology and :class:`LatencyModel` are built
    once.  Load-independent plans are cached by request signature:
    schedulers are pure per collective (the Themis tracker resets every
    request), so training loops that resubmit identical collectives each
    iteration plan only once.  Only plain :class:`SchedulerFactory`
    instances are cached; subclasses (e.g. replay factories) may carry
    state and always plan afresh.
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
        self._plans: dict[tuple, CollectivePlan] = {}

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
    ) -> tuple[CollectivePlan, tuple | None]:
        """Plan ``request`` issued at ``now``; returns ``(plan, cache key)``.

        ``factors`` are the live per-dimension capacity factors.  They are
        part of the planning input: a degraded dimension must look
        expensive to a bandwidth-aware scheduler, so plans made under
        different fault states never share a cache slot.  The key is
        ``None`` for a factory that is never cached.
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
            # The chunk schedules are shared; only the identity fields are
            # re-stamped for this submission.
            return replace(cached, request=request, issue_time=now, metadata={}), key
        scheduler = factory.create()
        plan_model: LatencyModel = model
        if degraded:
            local = tuple(
                factors[subtopo.parent_index(i)] for i in range(subtopo.ndims)
            )
            if any(factor != 1.0 for factor in local):
                plan_model = ScaledLatencyModel(model, local)
        plan = scheduler.plan(request, subtopo, plan_model, issue_time=now)
        if key is not None:
            self._plans[key] = plan
        return plan, key


def build_chunk_ops(
    request: CollectiveRequest,
    plan: CollectivePlan,
    subtopo: Topology,
    model: LatencyModel,
) -> list[list[OpState]]:
    """One executable op per (chunk, stage) of ``plan``, indexed by chunk.

    Each op's bytes, transfer and fixed times come from ``model`` on the
    request's communicator ``subtopo``.
    """
    chunk_ops: list[list[OpState]] = []
    for chunk in plan.chunks:
        ops = []
        for stage_index, stage in enumerate(chunk.stages):
            parent_dim = subtopo.parent_index(stage.dim_index)
            ops.append(
                OpState(
                    collective_seq=request.request_id,
                    chunk_id=chunk.chunk_id,
                    stage_index=stage_index,
                    stage=stage,
                    parent_dim=parent_dim,
                    bytes_sent=model.bytes_per_npu(
                        stage.op, stage.stage_size, stage.dim_index
                    ),
                    transfer_time=model.chunk_load(
                        stage.op, stage.stage_size, stage.dim_index
                    ),
                    fixed_time=model.fixed_latency(stage.op, stage.dim_index),
                    priority=request.priority,
                    owner=request.owner,
                )
            )
        chunk_ops.append(ops)
    return chunk_ops


class NetworkSimulator:
    """Event-driven network that executes scheduled collectives.

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
        hundreds of jobs turn it off: the per-op list grows without bound
        and none of the cluster metrics read it.

    Plans come from a :class:`CollectivePlanner`, cached by request
    signature; enforced intra-dimension orders are cached under the same
    key, which also skips the per-iteration consistency pre-simulation.
    """

    #: Capability flags read by backend-agnostic callers (the training
    #: loop checks ``accepts_scheduler`` before passing a per-request
    #: factory; reporting checks ``provides_result`` before snapshotting).
    accepts_scheduler = True
    provides_result = True

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
        self.topology = topology
        self.scheduler_factory = scheduler or SchedulerFactory("themis")
        self.policy = (
            policy if isinstance(policy, IntraDimPolicy) else get_policy(policy)
        )
        self.fusion = fusion or FusionConfig()
        self.engine = engine or EventQueue()
        self.enforce_consistency = enforce_consistency
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
                self.auditor.register_channel(channel)
        self._states: dict[int, _CollectiveState] = {}
        self._results: list[CollectiveResult] = []
        self._records: list[OpRecord] = []
        self._records_sorted = True
        #: ``plan key -> {parent dim: [(chunk_id, stage_index), ...]}`` —
        #: enforced orders with the request id stripped, re-stamped per
        #: submission (op keys embed the submitting request's id).
        self._order_cache: dict[tuple, dict[int, list[tuple[int, int]]]] = {}
        self._inflight = 0
        self._comm_active_since: float | None = None
        self._comm_active: list[Interval] = []
        self._owner_inflight: dict[str, int] = {}
        self._owner_active_since: dict[str, float] = {}
        self._owner_active: dict[str, list[Interval]] = {}
        # --- fault injection -------------------------------------------------
        #: Applied capacity changes, in order: ``(time, dim, new factor)``.
        self.fault_timeline: list[tuple[float, int, float]] = []
        #: Per-dimension live faults (fault id -> factor); overlapping
        #: faults compose as the product, recomputed from the survivors at
        #: every start/end (never divided out).
        self._active_faults: list[dict[int, float]] = [
            {} for _ in self.channels
        ]
        self._fault_seq = 0

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
        return sum(channel.preemption_count for channel in self.channels)

    # --- fault injection ----------------------------------------------------
    def apply_fault(self, fault: LinkFault) -> None:
        """Schedule one capacity fault (and its restoration) on the engine.

        At ``fault.start`` the dimension's capacity factor becomes the
        product of every fault live on it; at ``fault.end`` (if any) the
        product of the survivors is recomputed and re-applied.  In-flight
        work re-segments at each change via
        :meth:`DimensionChannel.set_capacity_factor`; a factor of zero
        parks it until a restore.  Themis's per-request load tracker plans
        against the degraded :class:`ScaledLatencyModel` while the fault is
        live — bandwidth awareness is exactly what is under test here.
        """
        if not 0 <= fault.dim_index < len(self.channels):
            raise ConfigError(
                f"fault targets dimension {fault.dim_index} but the "
                f"topology has {len(self.channels)} dimension(s)"
            )
        if fault.start < self.engine.now:
            raise ConfigError(
                f"fault starts at {fault.start} but the simulation is "
                f"already at {self.engine.now}"
            )
        fault_id = self._fault_seq
        self._fault_seq += 1
        self.engine.schedule(
            fault.start, lambda: self._fault_begin(fault_id, fault)
        )
        end = fault.end
        if end is not None:
            self.engine.schedule(end, lambda: self._fault_end(fault_id, fault))

    def apply_fault_schedule(self, schedule: FaultSchedule) -> None:
        """Apply every event of a :class:`FaultSchedule` (validated against
        this topology's dimension count)."""
        for fault in schedule.restricted_to(len(self.channels)).events:
            self.apply_fault(fault)

    def _fault_begin(self, fault_id: int, fault: LinkFault) -> None:
        self._active_faults[fault.dim_index][fault_id] = fault.factor
        self._apply_capacity(fault.dim_index)

    def _fault_end(self, fault_id: int, fault: LinkFault) -> None:
        self._active_faults[fault.dim_index].pop(fault_id, None)
        self._apply_capacity(fault.dim_index)

    def _apply_capacity(self, dim_index: int) -> None:
        factor = compose_factors(self._active_faults[dim_index])
        self.fault_timeline.append((self.engine.now, dim_index, factor))
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
        subtopo, model = self.planner.subtopology(request)
        plan, plan_key = self.planner.plan(
            request,
            scheduler_factory or self.scheduler_factory,
            tuple(channel.capacity_factor for channel in self.channels),
            self.engine.now,
        )
        result.plan = plan

        chunk_ops = self._build_chunk_ops(request, plan, subtopo, model)

        state = _CollectiveState(result, chunk_ops, on_complete)
        self._states[request.request_id] = state
        self._mark_comm_active(request.owner)

        if self.enforce_consistency:
            self._install_enforced_orders(state, plan_key)

        for ops in chunk_ops:
            self.channels[ops[0].parent_dim].enqueue(ops[0])

    def _build_chunk_ops(
        self,
        request: CollectiveRequest,
        plan: CollectivePlan,
        subtopo: Topology,
        model: LatencyModel,
    ) -> list[list[OpState]]:
        """Materialize the plan's chunk stages as executable channel ops.

        The execution-granularity hook: the exact simulator emits one op
        per (chunk, stage) so every pipelining and contention boundary is
        an event; the fluid backend overrides this to collapse the chunk
        train into aggregate per-dimension flows.  Op lists are indexed by
        ``chunk_id`` (``_on_batch_done`` advances ``chunk_ops[op.chunk_id]``
        to the next stage), so overrides must keep ``chunk_id`` equal to
        the op list's position.
        """
        return build_chunk_ops(request, plan, subtopo, model)

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

    # --- progression ----------------------------------------------------------
    def _on_batch_done(self, channel: DimensionChannel, batch: list[OpState]) -> None:
        record = self.record_ops
        for op in batch:
            if record:
                self._records.append(op.to_record())
                self._records_sorted = False
            state = self._states[op.collective_seq]
            ops = state.chunk_ops[op.chunk_id]
            next_index = op.stage_index + 1
            if next_index < len(ops):
                next_op = ops[next_index]
                self.channels[next_op.parent_dim].enqueue(next_op)
            state.remaining_ops -= 1
            if state.remaining_ops == 0:
                self._finish_collective(state)

    def _finish_collective(self, state: _CollectiveState) -> None:
        state.result.completion_time = self.engine.now
        del self._states[state.result.request.request_id]
        self._mark_comm_idle_if_done(state.result.request.owner)
        if state.on_complete is not None:
            state.on_complete(state.result)

    def _mark_comm_active(self, owner: str) -> None:
        self._inflight += 1
        if self._comm_active_since is None:
            self._comm_active_since = self.engine.now
        self._owner_inflight[owner] = self._owner_inflight.get(owner, 0) + 1
        if owner not in self._owner_active_since:
            self._owner_active_since[owner] = self.engine.now

    def _mark_comm_idle_if_done(self, owner: str) -> None:
        now = self.engine.now
        self._inflight -= 1
        if self._inflight == 0 and self._comm_active_since is not None:
            if now > self._comm_active_since:
                self._comm_active.append(Interval(self._comm_active_since, now))
            self._comm_active_since = None
        self._owner_inflight[owner] -= 1
        if self._owner_inflight[owner] == 0:
            since = self._owner_active_since.pop(owner)
            if now > since:
                self._owner_active.setdefault(owner, []).append(
                    Interval(since, now)
                )

    # --- running ----------------------------------------------------------------
    def run(self, max_events: int | None = None) -> ExecutionResult:
        """Run the engine to quiescence and package the results."""
        self.engine.run(max_events=max_events)
        if self._states:
            dead = [
                channel.dim_index
                for channel in self.channels
                if channel.capacity_factor <= 0.0
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
        return self.result()

    def result(self) -> ExecutionResult:
        """Snapshot results at the current simulation time.

        Safe to call mid-run: open activity/comm-active intervals are
        closed *in the snapshot only* (internal accounting is untouched, so
        the simulation can keep running afterwards), and collectives still
        in flight keep their NaN ``completion_time`` — the aggregate
        :class:`ExecutionResult` timings skip them.

        Caveat for mid-run use: ``dim_busy_seconds`` / ``dim_bytes`` are
        batch-granular (credited in full when a batch *starts*), so a
        snapshot taken while a batch is mid-transfer counts that batch's
        whole transfer against an active window that has only partially
        elapsed.  The skew is bounded by one batch per dimension and is
        zero once the engine is quiescent.
        """
        if not self._results:
            raise SimulationError("no collectives were submitted")
        now = self.engine.now
        comm_active = list(self._comm_active)
        if self._comm_active_since is not None and now > self._comm_active_since:
            comm_active.append(Interval(self._comm_active_since, now))
        by_owner = {
            owner: list(intervals)
            for owner, intervals in self._owner_active.items()
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
        return ExecutionResult(
            topology=self.topology,
            records=list(self._records),
            collectives=list(self._results),
            dim_transfer_seconds=[c.stats.transfer_seconds for c in self.channels],
            dim_busy_seconds=[c.stats.busy_seconds for c in self.channels],
            dim_bytes=[c.stats.bytes_sent for c in self.channels],
            dim_activity=[
                merge_intervals(c.snapshot_activity()) for c in self.channels
            ],
            comm_active_intervals=merge_intervals(comm_active),
            comm_active_by_owner={
                owner: merge_intervals(intervals)
                for owner, intervals in sorted(by_owner.items())
            },
        )
