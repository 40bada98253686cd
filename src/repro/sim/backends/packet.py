"""Packet-granularity network backend.

Where the analytical backend charges each chunk op a closed-form
``A_K + n_K x B_K``, :class:`PacketNetwork` *transports* the op's bytes:

* the op's per-NPU bytes are packetized at the backend MTU (plus a
  per-packet header) and serialized through the dimension's FIFO egress
  port — one modeled port per dimension (the NPUs of a dimension are
  symmetric, so one representative per-NPU port carries the per-NPU byte
  volume), with ``links_per_npu`` parallel lanes at ``link_bw`` each.
  Packets book lanes contiguously in op-arrival order, so concurrent ops
  *queue* FIFO on the wire rather than processor-share it — a collective
  library keeps one transfer per dimension on the NIC at a time;
* packets pick a lane by the routing mode: ``"deterministic"`` takes the
  earliest-free lane (work-conserving multi-rail striping), ``"ecmp"``
  takes a stable SHA-256 hash of the (flow, hop, packet) tuple — the
  classic ECMP hazard that several flows can collide on one lane while
  others idle;
* switch dimensions forward store-and-forward through a second port
  (host -> switch -> host), splitting the dimension's ``step_latency``
  propagation across the hops; ring / fully-connected dimensions are one
  hop;
* the algorithm's round structure (``steps(op, P)`` — P-1 for Ring, 1
  for Direct, ...) is charged as a pipeline-refill tail: real ring
  implementations pipeline rounds at slice granularity (round ``r+1`` of
  one slice overlaps round ``r`` of the next), so the wire serializes
  the op's bytes once and the remaining ``steps - 1`` round traversals
  cost one propagation plus one packet serialization each, appended to
  the delivery time;
* :class:`~repro.sim.faults.FaultSchedule` events rescale the port rates
  (a factor of zero parks arriving flows until a restore), feeding the
  same degraded :class:`ScaledLatencyModel` planning input as the
  analytical backend so Themis stays bandwidth-aware under faults.

Per op the model yields ``queue wait + n x (1 + header/MTU) / BW +
steps x step_latency + (steps - 1) x pkt_ser + store-and-forward``: as
packets shrink relative to the op (MTU well below ``n/steps``) this
converges to the analytical ``A_K + n_K x B_K`` from above, with the
header overhead vanishing as the MTU *grows* and the pipeline-refill
term vanishing as it *shrinks* — uncontended agreement is therefore
closest at intermediate MTUs and is pinned, with stated tolerances, in
``tests/test_backends.py``.

Intra-dimension policies, fusion, weighted sharing, and preemption are
batch-level concepts of the analytical channels; at packet granularity
the wire discipline is FIFO, so those knobs do not apply here (the
``policy`` / ``fusion`` build arguments are accepted for interface
uniformity and ignored; the sharing entry points raise).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ...core.latency_model import LatencyModel
from ...core.scheduler import SchedulerFactory
from ...errors import ConfigError
from ...numeric import ordered_sum
from ...topology import Topology
from ...topology.dimension import DimensionKind, DimensionSpec
from ..engine import EventQueue
from ..executor import OpState
from ..network import (
    CollectiveResult,
    NetworkBookkeeping,
    WireStats,
    _CollectiveState,
    build_chunk_ops,
)
from ..timeline import Interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.policies import IntraDimPolicy
    from ..executor import FusionConfig

#: Lane-selection modes for multi-link dimensions.
ROUTING_MODES: tuple[str, ...] = ("deterministic", "ecmp")


@dataclass(frozen=True)
class PacketOptions:
    """Knobs of the packet backend (a scenario's ``backend_options``).

    ``mtu_bytes`` / ``header_bytes`` are backend-level: they model the
    transport the collective library runs over and are independent of the
    *analytical* per-dimension goodput knobs
    (``DimensionSpec.max_packet_bytes``), which stay what they are — the
    closed-form model's wire-overhead correction.

    ``max_packets_per_op`` bounds simulation cost on huge transfers: when
    one op would exceed it, the effective MTU is raised so the op
    packetizes into at most that many packets (coarser, but byte volumes
    and rates are preserved).
    """

    mtu_bytes: float = 65536.0
    header_bytes: float = 64.0
    routing: str = "deterministic"
    max_packets_per_op: int = 256

    def __post_init__(self) -> None:
        if not 0 < self.mtu_bytes < math.inf:
            raise ConfigError(
                f"mtu_bytes must be positive and finite, got {self.mtu_bytes}"
            )
        if not 0 <= self.header_bytes < math.inf:
            raise ConfigError(
                f"header_bytes must be non-negative and finite, "
                f"got {self.header_bytes}"
            )
        if self.routing not in ROUTING_MODES:
            raise ConfigError(
                f"unknown routing mode {self.routing!r}; "
                f"known: {', '.join(ROUTING_MODES)}"
            )
        if not 1 <= self.max_packets_per_op < math.inf:
            raise ConfigError(
                "max_packets_per_op must be >= 1, got "
                f"{self.max_packets_per_op}"
            )


def packetize(nbytes: float, mtu_bytes: float) -> list[float]:
    """Split a byte volume into MTU-bounded payloads.

    Full packets carry exactly ``mtu_bytes``; the remainder rides in the
    final packet, so the payloads sum back to ``nbytes`` (byte
    conservation — property-tested across MTU choices).
    """
    if nbytes <= 0:
        return []
    # divmod's remainder is exact, so it stays below one MTU, where
    # ``nbytes - full * mtu_bytes`` can round past it.  The packet count
    # follows the rounded quotient: a remainder too small to lift
    # ``nbytes / mtu_bytes`` off a whole number rides in no packet.
    full, remainder = divmod(nbytes, mtu_bytes)
    payloads = [mtu_bytes] * int(full)
    if len(payloads) < math.ceil(nbytes / mtu_bytes):
        payloads.append(remainder)
    return payloads


def capped_mtu(nbytes: float, mtu_bytes: float, max_packets: int) -> float:
    """The MTU at which ``nbytes`` packetizes into at most ``max_packets``.

    ``mtu_bytes`` when it already does; otherwise ``nbytes / max_packets``,
    stepped up one ulp at a time while the rounded division still leaves
    :func:`packetize` one packet over the cap.
    """
    if math.ceil(nbytes / mtu_bytes) <= max_packets:
        return mtu_bytes
    mtu = nbytes / max_packets
    while math.ceil(nbytes / mtu) > max_packets:
        mtu = math.nextafter(mtu, math.inf)
    return mtu


def lane_for_packet(
    routing: str,
    lanes: list[float],
    flow_key: tuple[int, ...],
    packet_index: int,
) -> int:
    """Pick the egress lane for one packet of one flow at one hop.

    ``lanes`` holds each lane's next-free time.  ``"deterministic"``
    picks the earliest-free lane (lowest index on ties) — the
    work-conserving striping a multi-rail bonding layer achieves;
    ``"ecmp"`` hashes the (flow, packet) identity with SHA-256 — stable
    across runs and platforms (no process-seeded ``hash()``), but flows
    can collide on a lane exactly as ECMP flows collide on a path.
    """
    if len(lanes) <= 1:
        return 0
    if routing == "deterministic":
        return min(range(len(lanes)), key=lambda lane: (lanes[lane], lane))
    token = ":".join(str(part) for part in (*flow_key, packet_index))
    digest = hashlib.sha256(token.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") % len(lanes)


def service_packets(
    payloads: list[float],
    header_bytes: float,
    rate: float,
    free_at: list[list[float]],
    prop_per_hop: float,
    routing: str,
    flow_key: tuple[int, ...],
    start: float,
) -> list[list[float]]:
    """Book one round's packets through every hop of a port group.

    ``free_at[hop][lane]`` is each lane's next-free time and is advanced
    in place (that is the FIFO egress queue: later bookings wait behind
    earlier ones).  Returns the per-hop arrival times
    ``arrivals[hop][i]`` — packet ``i`` is available at the *next* hop
    (or delivered, after the last) at that instant.  Store-and-forward:
    a packet enters hop ``h+1`` only after it fully serialized out of
    hop ``h`` and propagated, so per-packet arrivals are strictly
    increasing across hops (property-tested).
    """
    hops = len(free_at)
    arrivals: list[list[float]] = []
    current = [start] * len(payloads)
    for hop in range(hops):
        lanes = free_at[hop]
        nxt: list[float] = []
        for index, payload in enumerate(payloads):
            lane = lane_for_packet(routing, lanes, (*flow_key, hop), index)
            begin = max(current[index], lanes[lane])
            done = begin + (payload + header_bytes) / rate
            lanes[lane] = done
            nxt.append(done + prop_per_hop)
        arrivals.append(nxt)
        current = nxt
    return arrivals


class _PortGroup:
    """The modeled egress path of one dimension.

    One group per *parent* dimension: ``hops`` store-and-forward stages
    (1 for ring / fully-connected, 2 for switch: host -> switch -> host),
    each with ``links_per_npu`` FIFO lanes at ``link_bw`` bytes/s.  The
    NPUs of a dimension are symmetric, so one representative port models
    the per-NPU egress; concurrent flows share its lanes in booking
    (arrival) order.
    """

    __slots__ = (
        "dim_index",
        "dim",
        "hops",
        "link_bw",
        "prop_per_hop",
        "capacity_factor",
        "free_at",
        "outstanding_bytes",
        "busy_seconds",
        "bytes_sent",
        "activity",
    )

    def __init__(self, dim_index: int, dim: DimensionSpec) -> None:
        self.dim_index = dim_index
        self.dim = dim
        self.hops = 2 if dim.kind is DimensionKind.SWITCH else 1
        self.link_bw = dim.link_bw
        # The analytical A_K charges step_latency per round traversal;
        # splitting it across the hops keeps one traversal's propagation
        # total identical to the closed-form term.
        self.prop_per_hop = dim.step_latency / self.hops
        self.capacity_factor = 1.0
        self.free_at: list[list[float]] = [
            [0.0] * dim.links_per_npu for _ in range(self.hops)
        ]
        #: Bytes submitted to this dimension and not yet delivered — the
        #: live-load signal automatic placement policies read.
        self.outstanding_bytes = 0.0
        self.busy_seconds = 0.0
        self.bytes_sent = 0.0
        self.activity: list[Interval] = []

    def service_op(
        self,
        payloads: list[float],
        header_bytes: float,
        routing: str,
        flow_key: tuple[int, ...],
        start: float,
    ) -> float:
        """Book one op's packets; returns the last packet's delivery time.

        The booking is contiguous: all packets enter the lane queues now,
        in order, so a later-arriving op's packets queue strictly behind
        (FIFO).  The returned instant includes one traversal's
        propagation; the caller appends the round-structure tail.
        """
        rate = self.link_bw * self.capacity_factor
        arrivals = service_packets(
            payloads,
            header_bytes,
            rate,
            self.free_at,
            self.prop_per_hop,
            routing,
            flow_key,
            start,
        )
        finish = max(arrivals[-1]) if arrivals and arrivals[-1] else start
        wire_seconds = ordered_sum(
            (payload + header_bytes) / rate for payload in payloads
        )
        lanes = len(self.free_at[0])
        self.busy_seconds += wire_seconds / lanes
        if finish > start:
            # The delivery instant includes the trailing propagation; the
            # wire itself is busy until the last hop finished serializing.
            self.activity.append(
                Interval(start, finish - self.prop_per_hop * self.hops)
            )
        return finish


class _FlowState:
    """One chunk op in flight: its round count and effective MTU."""

    __slots__ = ("op", "rounds", "mtu_bytes")

    def __init__(self, op: OpState, rounds: int, mtu_bytes: float) -> None:
        self.op = op
        self.rounds = rounds
        self.mtu_bytes = mtu_bytes


class PacketNetwork(NetworkBookkeeping):
    """Event-driven packet-level network (the ``"packet"`` backend).

    Planning is shared with the analytical backend — the same scheduler
    factories produce the same :class:`CollectivePlan` (including the
    degraded-planning behavior under live faults) — only the *execution*
    of each chunk op differs: packetized rounds through FIFO ports
    instead of closed-form batches through fluid channels.  See the
    module docstring for the model.
    """

    key = "packet"
    description = (
        "packet-level model: MTU packetization, FIFO egress queues, "
        "store-and-forward switch hops, deterministic/ECMP routing"
    )
    accepts_scheduler = True
    provides_result = True
    supports_faults = True
    supports_cluster = True
    options_type = PacketOptions

    @classmethod
    def build(
        cls,
        topology: Topology,
        *,
        scheduler: SchedulerFactory | None = None,
        policy: "str | IntraDimPolicy" = "SCF",
        fusion: "FusionConfig | None" = None,
        engine: EventQueue | None = None,
        record_ops: bool = True,
        audit: bool | None = None,
        options: dict[str, Any] | None = None,
    ) -> PacketNetwork:
        return cls(
            topology,
            scheduler=scheduler,
            engine=engine,
            record_ops=record_ops,
            audit=audit,
            options=cls.validate_options(options),
        )

    def __init__(
        self,
        topology: Topology,
        scheduler: SchedulerFactory | None = None,
        engine: EventQueue | None = None,
        record_ops: bool = True,
        audit: bool | None = None,
        options: PacketOptions | None = None,
        algorithm_overrides: dict[int, str] | None = None,
    ) -> None:
        super().__init__(
            topology, scheduler, engine, record_ops, audit, algorithm_overrides
        )
        self.options = options or PacketOptions()
        #: Per-dimension port groups; placement policies read
        #: ``channels[d].outstanding_bytes`` exactly as on the analytical
        #: backend, so the live-load signal survives the fidelity switch.
        self.channels = [_PortGroup(i, dim) for i, dim in enumerate(topology.dims)]
        self._dim_transfer = [0.0] * len(self.channels)
        #: Flows parked on a zero-capacity dimension, resumed (in parking
        #: order) when a restore event lifts the factor above zero.
        self._parked: list[list[_FlowState]] = [[] for _ in self.channels]

    # --- fairness: not available at this fidelity ---------------------------
    def set_tenant_weights(
        self,
        weights: dict[str, "float | dict[int, float]"],
        default: float = 1.0,
    ) -> None:
        raise ConfigError(
            "the packet backend has FIFO egress queues and no weighted "
            "per-tenant sharing; use backend='analytical' for weighted/ftf "
            "fairness policies"
        )

    def enable_preemption(self) -> None:
        raise ConfigError(
            "the packet backend does not support priority preemption; "
            "use backend='analytical' for the preempt fairness policy"
        )

    @property
    def preemption_count(self) -> int:
        """Preemption does not exist at packet fidelity."""
        return 0

    # --- fault injection ----------------------------------------------------
    def _apply_capacity(self, dim_index: int, factor: float) -> None:
        """Rate changes apply to ops booked *after* the change; ops already
        on the wire complete at their booked time (op granularity — chunk
        ops are short relative to fault durations).  A factor of zero parks
        arriving ops until a restore."""
        group = self.channels[dim_index]
        group.capacity_factor = factor
        if factor > 0.0 and self._parked[dim_index]:
            resumed = self._parked[dim_index]
            self._parked[dim_index] = []
            for flow in resumed:
                self._book_flow(flow)

    # --- submission ---------------------------------------------------------
    def _start_collective(
        self,
        result: CollectiveResult,
        on_complete: Callable[[CollectiveResult], None] | None,
        scheduler: SchedulerFactory | None,
    ) -> None:
        request = result.request
        # The live port capacities are the planning input, exactly as on
        # the analytical backend: degraded dimensions look expensive.
        plan, _, costs = self.planner.plan(
            request,
            scheduler or self.scheduler_factory,
            tuple(group.capacity_factor for group in self.channels),
            self.engine.now,
        )
        result.plan = plan
        chunk_ops = build_chunk_ops(result, costs)
        subtopo, model = self.planner.subtopology(request)
        flows = [self._flow_for(ops[0], subtopo, model) for ops in chunk_ops]

        self._register_collective(_CollectiveState(result, chunk_ops, on_complete))
        for flow in flows:
            self._start_flow(flow)

    # --- flow execution -----------------------------------------------------
    def _flow_for(
        self, op: OpState, subtopo: Topology, model: LatencyModel
    ) -> _FlowState:
        """Size one op's rounds from its algorithm on the communicator."""
        stage = op.stage
        peers = subtopo.dims[stage.dim_index].size
        rounds = model.algorithms[stage.dim_index].steps(stage.op, peers)
        if rounds < 1 or op.bytes_sent <= 0:
            return _FlowState(op, 0, self.options.mtu_bytes)
        # Event-cost bound: coarsen the MTU rather than drop bytes.
        options = self.options
        mtu = capped_mtu(op.bytes_sent, options.mtu_bytes, options.max_packets_per_op)
        return _FlowState(op, rounds, mtu)

    def _start_flow(self, flow: _FlowState) -> None:
        now = self.engine.now
        flow.op.ready_time = now
        group = self.channels[flow.op.parent_dim]
        group.outstanding_bytes += flow.op.bytes_sent
        if flow.rounds == 0:
            # Degenerate op (single-peer dimension or zero bytes): the
            # analytical model charges it nothing beyond its fixed term —
            # it never occupies the port.
            flow.op.start_time = now
            self.engine.schedule_after(
                flow.op.fixed_time, lambda: self._complete_op(flow)
            )
            return
        if group.capacity_factor <= 0.0:
            # The dimension is dead: park until a restore lifts the
            # factor.  Parked flows resume in parking (FIFO) order.
            self._parked[flow.op.parent_dim].append(flow)
            return
        self._book_flow(flow)

    def _book_flow(self, flow: _FlowState) -> None:
        """Book the op's full byte volume through the port, contiguously.

        One booking per op: the wire occupies serialization time only, so
        concurrent ops pipeline exactly as the analytical channel's batch
        model has them (fixed latency overlaps transfer across ops).  The
        algorithm's round structure rides as a completion-latency tail —
        ``steps`` propagation traversals (one is already inside the booked
        arrivals) plus ``steps - 1`` packet-refill serializations, the
        slice-pipelined ring's exposed latency.
        """
        op = flow.op
        group = self.channels[op.parent_dim]
        op.start_time = self.engine.now
        payloads = packetize(op.bytes_sent, flow.mtu_bytes)
        wire_done = group.service_op(
            payloads,
            self.options.header_bytes,
            self.options.routing,
            op.key,
            self.engine.now,
        )
        rate = group.link_bw * group.capacity_factor
        # The refill slice is one packet — or the whole op, if it fits in
        # fewer bytes than an MTU.
        slice_bytes = min(flow.mtu_bytes, op.bytes_sent)
        pkt_ser = (slice_bytes + self.options.header_bytes) / rate
        tail = (flow.rounds - 1) * (group.dim.step_latency + pkt_ser)
        self.engine.schedule(wire_done + tail, lambda: self._complete_op(flow))

    def _complete_op(self, flow: _FlowState) -> None:
        op = flow.op
        op.end_time = self.engine.now
        group = self.channels[op.parent_dim]
        group.outstanding_bytes -= op.bytes_sent
        group.bytes_sent += op.bytes_sent
        self._dim_transfer[op.parent_dim] += op.transfer_time
        if self.record_ops:
            self._records.append(op.to_record())
            self._records_sorted = False
        state = self._states[op.collective_seq]
        ops = state.chunk_ops[op.chunk_id]
        next_index = op.stage_index + 1
        if next_index < len(ops):
            subtopo, model = self.planner.subtopology(state.result.request)
            self._start_flow(self._flow_for(ops[next_index], subtopo, model))
        state.remaining_ops -= 1
        if state.remaining_ops == 0:
            self._finish_collective(state)

    # --- running ------------------------------------------------------------
    def _wire_stats(self) -> WireStats:
        groups = self.channels
        return (
            list(self._dim_transfer),
            [g.busy_seconds for g in groups],
            [g.bytes_sent for g in groups],
            [g.activity for g in groups],
        )
