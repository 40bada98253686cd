"""Per-dimension execution machinery: op states, fusion, dimension channels.

The simulator models each network dimension as a *channel* whose wire
serializes chunk transfers at the dimension's aggregate bandwidth, while
the fixed per-op delay ``A_K = steps x step_latency`` is a **pipeline
shadow**: consecutive chunk ops follow each other at transfer-rate spacing
and each op's output becomes available ``A_K`` after its transfer ends.
This realizes exactly the paper's per-dimension cost (Sec. 4.4)::

    Latency(dimK) = A_K + N_K x B_K + idle_K

where ``A_K`` is paid once (by the last op's exposed tail), not once per
chunk — hierarchical collectives stream chunks through their step pipeline.

Two provisions from Sec. 4.3 are implemented here:

* the **intra-dimension policy** picks which ready op runs next (FIFO/SCF),
* **fusion** executes several small ops as one batch when a single op's
  transfer time cannot amortize the fixed latency (the paper's "multiple
  chunks per dimension ... similar to the collective fusion concept in
  NCCL"): a fused batch shares one fixed-delay shadow and coalesces
  scheduling events.

For multi-tenant cluster simulations the wire additionally supports two
fairness disciplines beyond the default serial (first-come) service
(``repro.cluster.fairness`` selects them):

* **weighted sharing** (:meth:`DimensionChannel.set_share_weights`): each
  tenant may have one batch in flight concurrently and the wire's bandwidth
  is split between the in-flight batches in proportion to per-tenant
  weights (GPS fluid sharing).  The channel keeps a GPS virtual clock
  (:class:`_GpsClock`, the virtual time of WFQ): a flow's finish tag is
  fixed when it starts, so a flow start or finish costs one heap operation
  and one re-armed finish event per channel, whatever the number of flows
  in flight; a weight change re-tags only the flows whose weight moved;
* **preemption** (:meth:`DimensionChannel.enable_preemption`): a ready op
  whose priority strictly exceeds the running batch's pauses that batch;
  the remainder of its transfer is re-run later, with statistics adjusted
  so no byte or wire-second is lost or double-counted.

Fault injection reuses the same machinery: the wire carries a live
``capacity_factor`` (fraction of nominal bandwidth, see
:mod:`repro.sim.faults`).  :meth:`DimensionChannel.set_capacity_factor`
re-segments the serial wire's in-flight batch at the new rate through the
path preemption uses, and on the shared wire advances the virtual clock
at the old rate and re-arms its finish event at the new one.  A factor of
zero parks everything in flight — a failed link loses no bytes, it just
stops draining until restored.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from ..collectives.phases import Stage
from ..core.policies import IntraDimPolicy
from ..core.ready_queue import ReadyQueue
from ..errors import ConfigError, SimulationError
from ..numeric import ordered_sum
from ..topology import DimensionSpec
from .engine import EventHandle, EventQueue
from .faults import MIN_CAPACITY_FACTOR
from .timeline import Interval, OpRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .audit import InvariantAuditor
    from .network import SoloRecipe


@dataclass(frozen=True)
class FusionConfig:
    """Chunk-op fusion parameters (Sec. 4.3, second provision).

    An op is *small* when ``transfer_time < saturation_factor x fixed_time``
    — it finishes its bytes before the pipeline latency is amortized, so
    running it alone underutilizes the dimension.  Up to ``max_ops`` small
    ops are fused into one batch.
    """

    enabled: bool = True
    saturation_factor: float = 1.0
    max_ops: int = 8

    def __post_init__(self) -> None:
        if self.saturation_factor < 0:
            raise ConfigError(
                f"saturation factor must be >= 0, got {self.saturation_factor}"
            )
        if self.max_ops < 1:
            raise ConfigError(f"max fused ops must be >= 1, got {self.max_ops}")

    def is_small(self, op: "OpState") -> bool:
        return op.transfer_time < self.saturation_factor * op.fixed_time


class OpState:
    """Mutable runtime state of one chunk operation on one dimension."""

    __slots__ = (
        "collective_seq",
        "priority",
        "owner",
        "chunk_id",
        "stage_index",
        "stage",
        "parent_dim",
        "bytes_sent",
        "transfer_time",
        "fixed_time",
        "ready_time",
        "start_time",
        "end_time",
        "queued",
    )

    def __init__(
        self,
        collective_seq: int,
        chunk_id: int,
        stage_index: int,
        stage: Stage,
        parent_dim: int,
        bytes_sent: float,
        transfer_time: float,
        fixed_time: float,
        priority: int = 0,
        owner: str = "",
    ) -> None:
        self.collective_seq = collective_seq
        self.priority = priority
        self.owner = owner
        self.chunk_id = chunk_id
        self.stage_index = stage_index
        self.stage = stage
        self.parent_dim = parent_dim
        self.bytes_sent = bytes_sent
        self.transfer_time = transfer_time
        self.fixed_time = fixed_time
        self.ready_time = float("inf")
        self.start_time = float("nan")
        self.end_time = float("nan")
        #: Ready-queue liveness flag (lazy deletion in the indexed queues).
        self.queued = False

    @property
    def key(self) -> tuple[int, int, int]:
        """Identity used by enforced intra-dimension orders."""
        return (self.collective_seq, self.chunk_id, self.stage_index)

    def to_record(self) -> OpRecord:
        stage = self.stage
        return OpRecord(
            self.collective_seq,
            self.chunk_id,
            self.stage_index,
            self.parent_dim,
            stage.op,
            stage.stage_size,
            self.bytes_sent,
            self.transfer_time,
            self.fixed_time,
            self.ready_time,
            self.start_time,
            self.end_time,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpState(c{self.collective_seq} chunk{self.chunk_id} "
            f"stage{self.stage_index} dim{self.parent_dim} {self.stage.op.value})"
        )


@dataclass
class ChannelStats:
    """Aggregated per-dimension statistics (feeds utilization and Fig. 9)."""

    transfer_seconds: float = 0.0
    fixed_seconds: float = 0.0
    bytes_sent: float = 0.0
    op_count: int = 0
    batch_count: int = 0
    activity_intervals: list[Interval] = field(default_factory=list)


class _RunningBatch:
    """Serial-wire bookkeeping for the batch currently (or lately) on the wire.

    ``remaining`` is the transfer time still owed; preemption decrements it
    by the elapsed segment and cancels the segment's pending release and
    completion events.  ``recipe_index`` is the batch's position in the
    batch list of the :class:`~repro.sim.network.SoloRecipe` recording it.
    """

    __slots__ = (
        "batch",
        "fixed",
        "transfer_total",
        "bytes_total",
        "priority",
        "remaining",
        "segment_start",
        "release_handle",
        "complete_handle",
        "recipe_index",
    )

    def __init__(
        self,
        batch: list[OpState],
        fixed: float,
        transfer: float,
        bytes_total: float,
        priority: int,
    ) -> None:
        self.batch = batch
        self.fixed = fixed
        self.transfer_total = transfer
        self.bytes_total = bytes_total
        self.priority = priority
        self.remaining = transfer
        self.segment_start = 0.0
        self.release_handle: EventHandle | None = None
        self.complete_handle: EventHandle | None = None
        self.recipe_index = -1


class _FlowState:
    """One tenant's in-flight batch under weighted bandwidth sharing.

    Its transfer work is fixed once, as the virtual finish ``tag`` on its
    priority class's :class:`_GpsClock`: the flow finishes when that clock
    reaches the tag, however other flows come and go.  Only a change of
    its own weight re-tags it.
    """

    __slots__ = ("batch", "owner", "fixed", "priority", "weight", "seq", "clock", "tag")
    clock: _GpsClock  # set by _GpsClock.push

    def __init__(
        self, batch: list[OpState], fixed: float, priority: int, weight: float, seq: int
    ) -> None:
        self.batch = batch
        self.owner = batch[0].owner
        self.fixed = fixed
        self.priority = priority
        self.weight = weight
        self.seq = seq
        self.tag = 0.0


class _FlowView(NamedTuple):
    """A shared-wire flow as the auditor sees it (rate and remaining work
    in nominal seconds, derived from the virtual clock on demand)."""

    rate: float
    remaining: float
    priority: int


#: Weights below this are clamped up so a zero-weight tenant still drains
#: (otherwise its flow would never finish and the simulation would deadlock).
_MIN_WEIGHT = 1e-9
#: A virtual clock restarts from zero before it tags work more than this
#: many times smaller than its current reading, so every tag keeps about
#: 13 significant digits of its flow's remaining work.
_REBASE_RATIO = 1e3
#: Serial-wire leftover below this fraction of a batch's transfer is
#: float round-off of a segment that is done, not work to re-run.
_SEGMENT_RTOL = 1e-12


class _GpsClock:
    """The GPS virtual clock of one priority class on a shared wire.

    While the class runs, ``vtime`` advances at ``capacity_factor /
    weight_sum`` per second, so a flow of weight ``w`` drains ``w`` work
    per unit of virtual time and a flow tagged ``vtime + work / w``
    finishes exactly when ``vtime`` reaches its tag (Parekh–Gallager GPS;
    the virtual time of WFQ, Demers/Keshav/Shenker).  ``heap`` orders the
    class's flows by ``(tag, start seq)``.  ``drained_at`` is the last
    time the clock advanced since the class last ran: a flow started
    before it has drained for a positive time.
    """

    __slots__ = ("vtime", "weight_sum", "heap", "drained_at")

    def __init__(self) -> None:
        self.vtime = 0.0
        self.weight_sum = 0.0
        self.heap: list[tuple[float, int, _FlowState]] = []
        self.drained_at = -math.inf

    def push(self, flow: _FlowState, work: float) -> None:
        """Admit a flow that is the class's newest."""
        flow.clock = self
        self.place(flow, work)
        heapq.heappush(self.heap, (flow.tag, flow.seq, flow))
        self.weight_sum += flow.weight

    def place(self, flow: _FlowState, work: float) -> None:
        """Tag ``flow`` to finish after ``work`` more virtual time."""
        if self.vtime > _REBASE_RATIO * work > 0.0:
            base, self.vtime = self.vtime, 0.0
            for _, _, other in self.heap:
                other.tag -= base
            self.heap = [(other.tag, seq, other) for _, seq, other in self.heap]
            heapq.heapify(self.heap)
        flow.tag = self.vtime + work

    def reindex(self, flows: list[_FlowState]) -> None:
        """Rebuild ``heap`` and ``weight_sum`` over the class's ``flows``,
        given in start order (the order their weights are summed in)."""
        self.heap = [(flow.tag, flow.seq, flow) for flow in flows]
        heapq.heapify(self.heap)
        self.weight_sum = ordered_sum(flow.weight for flow in flows)


class DimensionChannel:
    """Executor for one network dimension.

    Owns a ready queue, applies the intra-dimension policy (optionally
    overridden by enforced per-collective orders, Sec. 4.6.2), performs
    fusion, and tracks activity intervals — a dimension "has activity if
    there is at least one chunk in that dimension for processing" (Fig. 9).

    By default the wire is *serial*: one batch at a time at full bandwidth.
    The cluster fairness layer may switch it to weighted per-tenant sharing
    (:meth:`set_share_weights`) or arm priority preemption
    (:meth:`enable_preemption`); see the module docstring.
    """

    def __init__(
        self,
        dim_index: int,
        dim: DimensionSpec,
        policy: IntraDimPolicy,
        fusion: FusionConfig,
        engine: EventQueue,
        on_batch_done: Callable[["DimensionChannel", list[OpState]], None],
    ) -> None:
        self.dim_index = dim_index
        self.dim = dim
        self.policy = policy
        self.fusion = fusion
        self.engine = engine
        self.on_batch_done = on_batch_done
        self.queue = ReadyQueue(policy.sort_key)
        self.stats = ChannelStats()
        # Live outstanding load (enqueued but not yet completed work) — read
        # at job-arrival time by the cluster placement policies.  Bytes are
        # credited on enqueue and debited when the op's batch completes, so
        # preempted/paused work correctly stays outstanding.
        self._outstanding_bytes = 0.0
        # collective_seq -> remaining enforced op-key order for this channel.
        self.enforced_orders: dict[int, list[tuple[int, int, int]]] = {}
        self._active_since: float | None = None
        # --- fairness machinery (off by default) --------------------------
        #: ``None`` = serial wire; a dict = weighted per-tenant sharing.
        self.share_weights: dict[str, float] | None = None
        self.default_weight = 1.0
        self.preemption_enabled = False
        self.preemption_count = 0
        #: Strict-priority variant of the shared wire (fluid backend's
        #: preemption model): only the highest-priority in-flight flows get
        #: rate; lower-priority flows park with their progress kept.
        self.priority_sharing = False
        self._flows: dict[str, _FlowState] = {}
        #: One virtual clock per priority class with flows in flight (a
        #: single class 0 unless priority sharing is on); the highest runs.
        self._clocks: dict[int, _GpsClock] = {}
        #: When the running class's clock last advanced.
        self._clock_time = 0.0
        self._flow_seq = itertools.count()
        #: The shared wire's one pending finish event.
        self._finish_handle: EventHandle | None = None
        self._running: _RunningBatch | None = None
        self._paused: list[_RunningBatch] = []
        # --- fault machinery (capacity always nominal by default) ---------
        #: Live capacity as a fraction of nominal: transfer work drains at
        #: ``capacity_factor`` nominal-seconds per wall-second.  ``0.0`` is
        #: a failed link — in-flight work parks (never lost) until restored.
        #: Statistics stay in nominal seconds regardless of the factor.
        self.capacity_factor = 1.0
        #: Optional runtime invariant auditor (see :mod:`repro.sim.audit`).
        #: Observer-only; attached by ``NetworkSimulator(audit=True)``.
        self.auditor: "InvariantAuditor | None" = None
        #: Records the serial wire's arithmetic while a collective that the
        #: network may replay runs alone.
        self.recipe: SoloRecipe | None = None

    # --- fairness configuration -------------------------------------------
    def set_share_weights(
        self, weights: dict[str, float], default: float = 1.0
    ) -> None:
        """Enable (or re-tune) weighted per-tenant bandwidth sharing.

        ``weights`` maps tenant (``OpState.owner``) to a positive share;
        tenants absent from the map get ``default``.  Safe to call mid-run:
        in-flight flows keep their progress and drain at the new rates.
        """
        for owner, weight in weights.items():
            if weight <= 0:
                raise ConfigError(
                    f"tenant {owner!r}: share weight must be positive, "
                    f"got {weight}"
                )
        if default <= 0:
            raise ConfigError(f"default share weight must be positive, got {default}")
        if self.share_weights is None and (self._running is not None or self._paused):
            raise ConfigError(
                f"dim{self.dim_index}: cannot switch to weighted sharing "
                "while the serial wire has a batch in flight"
            )
        self.share_weights = dict(weights)
        self.default_weight = default
        if self._retag_flows():
            self._arm_finish()
        self.try_start()

    def enable_preemption(self) -> None:
        """Let strictly higher-priority arrivals pause the running batch."""
        self.preemption_enabled = True

    def enable_priority_sharing(self) -> None:
        """Strict-priority rates on the shared wire (fluid preemption).

        Only in-flight flows at the current maximum priority split the
        wire; lower-priority flows park with their progress kept — the
        fluid-model analogue of serial preemption.  Parking a class counts
        one preemption for each of its flows that drained for a positive
        time since the class last started running.
        """
        if self.share_weights is None or self._flows:
            raise ConfigError(
                f"dim{self.dim_index}: priority sharing requires the shared "
                "wire with no flow in flight; call set_share_weights first"
            )
        self.priority_sharing = True

    # --- fault injection ---------------------------------------------------
    def set_capacity_factor(self, factor: float) -> None:
        """Change the wire's live capacity mid-run (fault inject/restore).

        ``factor`` is the fraction of nominal bandwidth the dimension now
        carries (``1.0`` = healthy, ``0.0`` = failed).  In-flight work is
        re-segmented at the new rate through the same path preemption
        uses, so byte/seconds accounting is conserved
        across the change: the done part of the current segment stays
        credited, the leftover is debited and re-credited when its new
        segment (or its park/resume cycle) runs.  On the shared wire the
        virtual clock advances at the old factor and the finish event is
        re-armed at the new one.  At ``0.0`` the in-flight batch parks
        (serial wire) or the clock stands still with nothing armed (shared
        wire); nothing is lost and nothing drains until a later call
        restores capacity.
        """
        if factor < 0.0:
            raise ConfigError(
                f"dim{self.dim_index}: capacity factor must be >= 0, "
                f"got {factor}"
            )
        if factor > 1.0:
            raise ConfigError(
                f"dim{self.dim_index}: capacity factor must be <= 1 "
                f"(degradation cannot exceed nominal), got {factor}"
            )
        if factor != 0.0 and factor < MIN_CAPACITY_FACTOR:
            factor = 0.0  # near-zero capacity behaves as a failure
        old = self.capacity_factor
        if factor == old:
            return
        if self.share_weights is not None:
            self._advance_clock()
            self.capacity_factor = factor
            self._arm_finish()
        else:
            # Serial wire: close the running segment at the old rate, then
            # either restart the leftover at the new rate or park it.  A
            # segment that is effectively done lets its pending events fire.
            stopped = self._stop_segment() if self._running is not None else None
            self.capacity_factor = factor
            if stopped is not None and factor > 0.0:
                self._start_segment(stopped)
            elif stopped is not None:
                self._paused.append(stopped)
                self._update_activity()
        if self.auditor is not None:
            self.auditor.on_capacity_change(self, old, factor)
        self.try_start()

    def _weight(self, owner: str) -> float:
        assert self.share_weights is not None
        return max(self.share_weights.get(owner, self.default_weight), _MIN_WEIGHT)

    # --- outstanding load (placement signals) ------------------------------
    @property
    def outstanding_bytes(self) -> float:
        """Bytes of enqueued-but-uncompleted work currently on this dimension.

        Counts ready, running, and paused/preempted ops (their bytes are
        still owed to the wire).  Ops of *later* stages of an in-flight
        chunk are not included until their predecessor completes and they
        are enqueued here.
        """
        return max(0.0, self._outstanding_bytes)

    def _track_completed(self, batch: list[OpState]) -> None:
        recipe = self.recipe
        for op in batch:
            self._outstanding_bytes -= op.bytes_sent
            if recipe is not None:
                recipe.outstanding[self.dim_index].append(-op.bytes_sent)

    # --- activity tracking ------------------------------------------------
    @property
    def has_work(self) -> bool:
        return (
            self._running is not None
            or bool(self.queue)
            or bool(self._flows)
            or bool(self._paused)
        )

    def _update_activity(self) -> None:
        """Open or close the activity interval to match :attr:`has_work`.

        The serial wire's hot path opens the interval inline where the
        channel has work by construction (an enqueue, a segment start) and
        closes it inline where a release leaves no work.
        """
        if self.has_work:
            if self._active_since is None:
                self._active_since = self.engine.now
        elif self._active_since is not None:
            self._close_activity()

    def _close_activity(self) -> None:
        """The channel has no work left: close its open activity interval."""
        assert self._active_since is not None
        now = self.engine.now
        if now > self._active_since:
            self.stats.activity_intervals.append(Interval(self._active_since, now))
        self._active_since = None

    def snapshot_activity(self) -> list[Interval]:
        """Closed activity intervals plus any still-open one up to ``now``.

        Non-destructive: the open interval (a dimension mid-transfer) is
        closed *in the returned copy only*, so ``NetworkSimulator.result()``
        can snapshot a live simulation without corrupting the accounting of
        the remainder of the run.
        """
        intervals = list(self.stats.activity_intervals)
        if self._active_since is not None and self.engine.now > self._active_since:
            intervals.append(Interval(self._active_since, self.engine.now))
        return intervals

    # --- enforced orders (schedule consistency, Sec. 4.6.2) ---------------
    def set_enforced_order(
        self, collective_seq: int, op_keys: list[tuple[int, int, int]]
    ) -> None:
        """Lock this channel's op order for one collective."""
        self.enforced_orders[collective_seq] = list(op_keys)

    # --- execution ----------------------------------------------------------
    def enqueue(self, op: OpState) -> None:
        """An op's previous stage finished: it is now ready on this channel.

        Under an enforced per-collective order only the order's head is
        eligible; preemption checks eligibility too, because an
        order-blocked op cannot start, so preempting for it would be
        immediately undone (and would inflate the reported preemption
        count).
        """
        now = self.engine.now
        op.ready_time = now
        eligible = True
        if self.enforced_orders:
            order = self.enforced_orders.get(op.collective_seq)
            eligible = order is None or bool(order and order[0] == op.key)
        self.queue.push(op, eligible)
        self._outstanding_bytes += op.bytes_sent
        if self.recipe is not None:
            self.recipe.outstanding[self.dim_index].append(op.bytes_sent)
        if self.auditor is not None:
            self.auditor.on_enqueue(self, op)
        if self._active_since is None:
            self._active_since = now
        running = self._running
        if running is None:
            self.try_start()
        elif self.preemption_enabled and op.priority > running.priority and eligible:
            self._preempt_running()
            if self._running is None:
                self.try_start()

    def try_start(self) -> None:
        """Start the next batch/flow if the wire discipline allows one."""
        if self.capacity_factor <= 0.0:
            return  # failed link: ready/parked work waits for restoration
        if self.share_weights is not None:
            self._try_start_shared()
            return
        if self._running is not None:
            return
        queue = self.queue
        best = queue.peek()
        if self._paused:
            paused = self._best_paused()
            assert paused is not None
            if best is None or paused.priority >= queue.max_priority():
                self._paused.remove(paused)
                self._start_segment(paused)
                return
        if best is None:
            return
        # Run the batch with pipelined fixed latency (paper Sec. 4.4): the
        # wire is occupied for the batch's *transfer* time only; the fixed
        # delay ``A_K = steps x step_latency`` is a pipeline shadow — the
        # results become available ``fixed`` later, but the next batch may
        # start injecting as soon as the wire frees.  This realizes the
        # paper's per-dimension total ``A_K + N_K x B_K + idle_K``, where
        # A_K is paid once (by the exposed tail), not per chunk.
        self._start_segment(_RunningBatch(*self._pick_batch(best)))

    def _pick_batch(
        self, first: OpState, fusion_owner: str | None = None
    ) -> tuple[list[OpState], float, float, float, int]:
        """Take ``first`` and, when it is small, fuse the next small ops.

        Each op taken leaves the ready queue and advances its enforced
        order: popping an order's head makes the next op in that order
        eligible, and the queue unparks it at once, so fusion sees it with
        no rescan.  Fusing thus preserves relative start order.  The
        batch is stamped and counted in the same pass, which returns it
        with its fixed latency (the ops' maximum), transfer time and bytes
        (summed left to right from integer ``0``, as :func:`ordered_sum`
        does) and priority (the ops' maximum).
        """
        queue = self.queue
        orders = self.enforced_orders
        fusion = self.fusion
        fuse = fusion.enabled and fusion.is_small(first)
        now = self.engine.now
        batch: list[OpState] = []
        fixed, priority = first.fixed_time, first.priority
        transfer: float = 0
        nbytes: float = 0
        op: OpState | None = first
        while op is not None:
            queue.discard(op)
            if orders:
                order = orders.get(op.collective_seq)
                if order and order[0] == op.key:
                    order.pop(0)
                    if order:
                        queue.promote(order[0])
            batch.append(op)
            op.start_time = now
            if op.fixed_time > fixed:
                fixed = op.fixed_time
            if op.priority > priority:
                priority = op.priority
            transfer += op.transfer_time
            nbytes += op.bytes_sent
            if not fuse or len(batch) >= fusion.max_ops:
                break
            op = queue.peek() if fusion_owner is None else queue.select(fusion_owner)
            if op is not None and not fusion.is_small(op):
                break
        self.stats.op_count += len(batch)
        self.stats.batch_count += 1
        if self.auditor is not None:
            self.auditor.on_batch_start(self, batch)
        return batch, fixed, transfer, nbytes, priority

    # --- serial wire (default, with optional preemption) -------------------
    def _start_segment(self, running: _RunningBatch) -> None:
        """(Re)occupy the wire for the batch's remaining transfer work.

        A fresh batch runs one segment covering its whole transfer; a batch
        resumed after preemption runs a segment for the leftover work.
        Statistics are credited per segment (and debited on preemption), so
        across all segments each batch contributes exactly its transfer
        seconds and bytes once.  The fixed-latency shadow is paid at the end
        of the final segment.

        ``remaining`` is nominal transfer work; a degraded wire drains it at
        ``capacity_factor`` work-seconds per wall-second, so the segment's
        wall time is ``remaining / capacity_factor`` (exactly ``remaining``
        at nominal capacity — division by 1.0 is lossless).  Statistics stay
        in nominal seconds.
        """
        assert self.capacity_factor > 0.0  # failed links park, never start
        engine = self.engine
        now = engine.now
        running.segment_start = now
        remaining = running.remaining
        frac = (
            remaining / running.transfer_total
            if running.transfer_total > 0
            else 1.0
        )
        self._running = running
        nbytes = running.bytes_total * frac
        stats = self.stats
        stats.transfer_seconds += remaining
        stats.fixed_seconds += running.fixed
        stats.bytes_sent += nbytes
        wall = remaining / self.capacity_factor
        if self.recipe is not None:
            self.recipe.batch_started(self.dim_index, running, nbytes, wall)
        end = now + running.fixed + wall
        for op in running.batch:
            op.end_time = end
        if self._active_since is None:
            self._active_since = now
        # Completion is scheduled before the wire release so that when the
        # fixed delay is zero (same-instant tie) the finished batch's
        # successor ops are enqueued before the channel picks its next batch.
        running.complete_handle = engine.schedule(end, partial(self._complete, running))
        running.release_handle = engine.schedule(
            now + wall, partial(self._release_wire, running)
        )

    def _stop_segment(self) -> _RunningBatch | None:
        """Take the running batch off the wire with its leftover work.

        The segment's pending release/completion events are cancelled, and
        the statistics credited at segment start are debited by exactly the
        un-done part, so a pause never loses or double-counts work.  Returns
        ``None`` (and changes nothing) when the segment is done up to
        round-off: the wire releases this instant.
        """
        running = self._running
        assert running is not None
        done = (self.engine.now - running.segment_start) * self.capacity_factor
        remaining = running.remaining - done
        if remaining <= _SEGMENT_RTOL * running.transfer_total:
            return None
        self.engine.cancel(running.complete_handle)
        self.engine.cancel(running.release_handle)
        frac = remaining / running.transfer_total
        self.stats.transfer_seconds -= remaining
        self.stats.fixed_seconds -= running.fixed
        self.stats.bytes_sent -= running.bytes_total * frac
        running.remaining = remaining
        self._running = None
        return running

    def _preempt_running(self) -> None:
        """Pause the running batch; its leftover transfer re-runs later."""
        running = self._stop_segment()
        if running is None:
            return
        self._paused.append(running)
        self.preemption_count += 1
        if self.auditor is not None:
            self.auditor.on_preempt(self, running)
        self._update_activity()

    def _best_paused(self) -> _RunningBatch | None:
        """Highest-priority paused batch (ties: most recently preempted).

        On equal priority the *last* batch pushed to ``_paused`` wins — the
        most recently preempted work resumes first (LIFO), which keeps a
        preemption storm from starving the batch it displaced last.
        """
        best = None
        for running in self._paused:
            if best is None or running.priority >= best.priority:
                best = running
        return best

    def _release_wire(self, running: _RunningBatch) -> None:
        if self.recipe is not None:
            self.recipe.fired(running, completion=False)
        if self._running is None:  # pragma: no cover - defensive
            raise SimulationError(
                f"dim{self.dim_index} released its wire while not busy"
            )
        running.remaining = 0.0
        self._running = None
        # The serial wire has no flows: work remains iff ops are queued or
        # a batch is paused.
        if self.queue or self._paused:
            self.try_start()
        else:
            self._close_activity()

    def _complete(self, running: _RunningBatch) -> None:
        if self.recipe is not None:
            self.recipe.fired(running, completion=True)
        batch = running.batch
        self._track_completed(batch)
        if self.auditor is not None:
            self.auditor.on_batch_complete(self, batch)
        self.on_batch_done(self, batch)
        if self._running is None:  # a busy wire is active and starts nothing
            self._update_activity()
            self.try_start()

    def credit_replay(
        self,
        credits: list[tuple[float, float, float, int]],
        outstanding: list[float],
        intervals: list[Interval],
    ) -> None:
        """Apply a replayed collective to this channel (see
        :class:`~repro.sim.network.SoloRecipe`): each batch's statistics
        and each change to the outstanding bytes, added in the order the
        wire made them so every float total rounds as it did, and the
        activity intervals."""
        stats = self.stats
        for transfer, fixed, nbytes, ops in credits:
            stats.transfer_seconds += transfer
            stats.fixed_seconds += fixed
            stats.bytes_sent += nbytes
            stats.op_count += ops
        stats.batch_count += len(credits)
        for change in outstanding:
            self._outstanding_bytes += change
        stats.activity_intervals.extend(intervals)

    # --- weighted-sharing wire (cluster fairness) ---------------------------
    def _try_start_shared(self) -> bool:
        """Admit one flow per tenant that has eligible work and none in
        flight; re-arms the finish event and returns True if any started."""
        started = False
        while True:
            first = self.queue.select(idle_only=True)
            if first is None:
                break
            self._start_flow(*self._pick_batch(first, fusion_owner=first.owner))
            started = True
        if started:
            self._arm_finish()
        return started

    def _start_flow(
        self,
        batch: list[OpState],
        fixed: float,
        transfer: float,
        nbytes: float,
        priority: int,
    ) -> None:
        self.stats.transfer_seconds += transfer
        self.stats.fixed_seconds += fixed
        self.stats.bytes_sent += nbytes
        self._advance_clock()
        owner = batch[0].owner
        flow = _FlowState(
            batch, fixed, priority, self._weight(owner), next(self._flow_seq)
        )
        key = flow.priority if self.priority_sharing else 0
        clock = self._clocks.get(key)
        if clock is None:
            if self._clocks and key > max(self._clocks):
                self._park(self._clocks[max(self._clocks)])
            clock = self._clocks[key] = _GpsClock()
        clock.push(flow, transfer / flow.weight)
        self._flows[owner] = flow
        self.queue.set_owner_active(owner, True)
        self._update_activity()

    def _park(self, clock: _GpsClock) -> None:
        """A higher priority class arrived: ``clock``'s class stops
        draining, and each of its flows that drained for a positive time
        since the class last ran counts one preemption."""
        self.preemption_count += ordered_sum(
            1
            for flow in self._flows.values()
            if flow.clock is clock and flow.batch[0].start_time < clock.drained_at
        )
        clock.drained_at = -math.inf

    def _advance_clock(self) -> None:
        """Advance the running class's virtual time to ``now``."""
        now = self.engine.now
        if now > self._clock_time and self._clocks and self.capacity_factor > 0.0:
            clock = self._clocks[max(self._clocks)]
            elapsed = now - self._clock_time
            clock.vtime += elapsed * self.capacity_factor / clock.weight_sum
            clock.drained_at = now
        self._clock_time = now

    def _arm_finish(self) -> None:
        """Re-arm the one finish event, for the running class's minimum
        tag.  On a failed link the clock stands still and nothing is armed."""
        self.engine.cancel(self._finish_handle)
        self._finish_handle = None
        if self._clocks and self.capacity_factor > 0.0:
            clock = self._clocks[max(self._clocks)]
            lag = max(clock.heap[0][0] - clock.vtime, 0.0)
            self._finish_handle = self.engine.schedule(
                self.engine.now + lag * clock.weight_sum / self.capacity_factor,
                self._finish_flow,
            )
        if self.auditor is not None and self._flows:
            self.auditor.on_flows_rescheduled(self, self._flow_views())

    def _retag_flows(self) -> bool:
        """Re-tag the in-flight flows whose weight changed (their remaining
        work is kept); returns True if any did."""
        self._advance_clock()
        changed = False
        for flow in self._flows.values():
            weight = self._weight(flow.owner)
            if weight != flow.weight:
                clock = flow.clock
                clock.place(flow, (flow.tag - clock.vtime) * flow.weight / weight)
                flow.weight = weight
                changed = True
        if changed:
            for clock in self._clocks.values():
                clock.reindex([f for f in self._flows.values() if f.clock is clock])
        return changed

    def _flow_views(self) -> dict[str, _FlowView]:
        running = self._clocks[max(self._clocks)]
        share = self.capacity_factor / running.weight_sum
        return {
            owner: _FlowView(
                f.weight * share if f.clock is running else 0.0,
                (f.tag - f.clock.vtime) * f.weight,
                f.priority,
            )
            for owner, f in self._flows.items()
        }

    def _finish_flow(self) -> None:
        self._finish_handle = None
        self._advance_clock()
        key = max(self._clocks)
        clock = self._clocks[key]
        # The event fires as the clock reaches the minimum tag.
        clock.vtime, _, flow = heapq.heappop(clock.heap)
        del self._flows[flow.owner]
        if clock.heap:
            clock.weight_sum = ordered_sum(
                f.weight for f in self._flows.values() if f.clock is clock
            )
        else:
            del self._clocks[key]
        self.queue.set_owner_active(flow.owner, False)
        end = self.engine.now + flow.fixed
        for op in flow.batch:
            op.end_time = end
        self.engine.schedule(end, partial(self._complete_flow, flow))
        self._update_activity()
        if not self._try_start_shared():
            self._arm_finish()

    def _complete_flow(self, flow: _FlowState) -> None:
        self._track_completed(flow.batch)
        if self.auditor is not None:
            self.auditor.on_batch_complete(self, flow.batch)
        self.on_batch_done(self, flow.batch)
        self._update_activity()
        self.try_start()
