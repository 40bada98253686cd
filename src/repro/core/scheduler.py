"""Collective schedulers: baseline (static) and Themis (Algorithm 1).

The *baseline* is the SOTA multi-rail hierarchical schedule (Sec. 2.3): every
chunk runs RS on dim1..dimD then AG on dimD..dim1.  *Themis* gives each chunk
its own dimension order, greedily filling the least-loaded dimensions first
(Sec. 4.2), falling back to the baseline order while the load gap is below a
threshold (Algorithm 1 lines 19-21).
"""

from __future__ import annotations

import abc

from ..collectives.phases import stage_plan
from ..collectives.types import CollectiveRequest, CollectiveType, PhaseOp
from ..errors import ScheduleError
from ..topology import Topology
from .chunk import CollectivePlan, build_chunk_plans
from .latency_model import LatencyModel
from .load_tracker import DimLoadTracker
from .splitter import Splitter

#: Paper default (Sec. 5.3): threshold is the predicted runtime of an RS/AG
#: of size ``chunk_size / 16`` on the least-loaded dimension.
DEFAULT_THRESHOLD_DIVISOR = 16.0


def baseline_dim_order(ctype: CollectiveType, ndims: int) -> tuple[int, ...]:
    """The static baseline order (Sec. 2.3).

    RS phases ascend dim1..dimD; a standalone All-Gather runs only the
    second half of the All-Reduce pipeline, i.e. dimD..dim1.  All-to-All
    follows the ascending convention.
    """
    if ctype is CollectiveType.ALL_GATHER:
        return tuple(range(ndims - 1, -1, -1))
    return tuple(range(ndims))


class CollectiveScheduler(abc.ABC):
    """Turns a :class:`CollectiveRequest` into a :class:`CollectivePlan`."""

    #: Scheduler label used in result tables (Table 3 naming).
    name: str = "abstract"

    def __init__(self, splitter: Splitter | None = None) -> None:
        self.splitter = splitter or Splitter()

    @abc.abstractmethod
    def chunk_orders(
        self,
        request: CollectiveRequest,
        chunk_sizes: list[float],
        model: LatencyModel,
    ) -> list[tuple[int, ...]]:
        """Produce each chunk's dimension order (``Schedule[][]`` of Alg. 1)."""

    def plan(
        self,
        request: CollectiveRequest,
        topology: Topology,
        model: LatencyModel | None = None,
        issue_time: float = 0.0,
    ) -> CollectivePlan:
        """Split the collective and schedule every chunk."""
        model = model or LatencyModel(topology)
        if model.topology is not topology:
            raise ScheduleError("latency model bound to a different topology")
        chunk_sizes = self.splitter.split(request.size)
        orders = self.chunk_orders(request, chunk_sizes, model)
        if len(orders) != len(chunk_sizes):
            raise ScheduleError(
                f"scheduler produced {len(orders)} orders for "
                f"{len(chunk_sizes)} chunks"
            )
        return CollectivePlan(
            request=request,
            topology=topology,
            chunks=build_chunk_plans(request.ctype, chunk_sizes, orders, topology),
            scheduler_name=self.name,
            issue_time=issue_time,
        )


class BaselineScheduler(CollectiveScheduler):
    """Static multi-rail hierarchical scheduling (paper Sec. 2.3, Table 3).

    Every chunk gets the identical baseline order; intra-dimension order is
    irrelevant for it ("no matter how each dimension selects chunks to
    process, the average BW utilization remains fixed", Sec. 4.3), so the
    executor pairs it with FIFO.
    """

    name = "Baseline"

    def chunk_orders(
        self,
        request: CollectiveRequest,
        chunk_sizes: list[float],
        model: LatencyModel,
    ) -> list[tuple[int, ...]]:
        order = baseline_dim_order(request.ctype, model.topology.ndims)
        return [order] * len(chunk_sizes)


class ThemisScheduler(CollectiveScheduler):
    """Dynamic bandwidth-aware chunk scheduling (paper Algorithm 1).

    For each chunk, in order:

    1. Read current dimension loads from the :class:`DimLoadTracker`.
    2. If ``max - min < threshold``, use the baseline order (robustness
       guard against oversubscribing low-BW dimensions).
    3. Otherwise sort dimensions by load — ascending for RS (least-loaded
       dimension sees the chunk at its largest), descending for AG
       (most-loaded dimension sees the chunk at its smallest).  For
       All-Reduce the AG order is the mirror of the RS order.
    4. Predict the chunk's per-dimension loads with the latency model and
       update the tracker.

    The threshold is the predicted transfer time of an RS of size
    ``chunk_size / threshold_divisor`` on the least-loaded dimension
    (Sec. 5.3; divisor 16 by default).  ``threshold_divisor=None`` disables
    the guard entirely (ablation).

    ``overshoot_guard`` is an extension beyond the paper: near just-enough
    provisioning, a greedy reroute charges a dimension a chunk that earlier
    stages have not shrunk, which can overshoot the very gap it is closing
    (``tests/test_claims.py::test_sec63_provisioning_regimes`` measures the
    corner).  With the guard on, a rerouted order is adopted only if its
    projected max dimension load does not exceed the baseline order's;
    otherwise the chunk falls back to the baseline order
    (``tests/test_extensions.py::TestOvershootGuard``).
    """

    name = "Themis"

    def __init__(
        self,
        splitter: Splitter | None = None,
        threshold_divisor: float | None = DEFAULT_THRESHOLD_DIVISOR,
        overshoot_guard: bool = False,
    ) -> None:
        super().__init__(splitter)
        if threshold_divisor is not None and threshold_divisor <= 0:
            raise ScheduleError(
                f"threshold divisor must be positive, got {threshold_divisor}"
            )
        self.threshold_divisor = threshold_divisor
        self.overshoot_guard = overshoot_guard

    # --- Algorithm 1, SCHEDULER.SCHEDULE -----------------------------------
    def _threshold(
        self, chunk_size: float, tracker: DimLoadTracker, model: LatencyModel
    ) -> float:
        if self.threshold_divisor is None:
            return 0.0
        probe_size = chunk_size / self.threshold_divisor
        return model.chunk_load(PhaseOp.RS, probe_size, tracker.min_load_dim)

    def _schedule_chunk(
        self,
        ctype: CollectiveType,
        chunk_size: float,
        tracker: DimLoadTracker,
        model: LatencyModel,
    ) -> tuple[int, ...]:
        """One SCHEDULER.SCHEDULE call: pick this chunk's dimension order."""
        threshold = self._threshold(chunk_size, tracker, model)
        if tracker.load_gap < threshold:
            order = baseline_dim_order(ctype, tracker.ndims)
        elif ctype is CollectiveType.ALL_GATHER:
            order = tracker.descending_order()
        else:
            # RS order; also used as the RS half of All-Reduce and the
            # traversal order of All-to-All.
            order = tracker.ascending_order()
        return order

    def chunk_orders(
        self,
        request: CollectiveRequest,
        chunk_sizes: list[float],
        model: LatencyModel,
    ) -> list[tuple[int, ...]]:
        tracker = DimLoadTracker(model)
        tracker.reset(request.ctype)
        # For All-Reduce, Algorithm 1 schedules the RS half and mirrors it
        # for AG; the tracker update covers the full round trip.
        probe_ctype = (
            CollectiveType.REDUCE_SCATTER
            if request.ctype is CollectiveType.ALL_REDUCE
            else request.ctype
        )
        # A chunk's loads (calcLoads, lines 28-29) depend only on its size
        # and order, so each distinct (size, order) is derived once per
        # call.  Chunks share the tuple, which the tracker only reads.
        shapes: dict[tuple[float, tuple[int, ...]], tuple[float, ...]] = {}

        def loads_of(chunk_size: float, order: tuple[int, ...]) -> tuple[float, ...]:
            loads = shapes.get((chunk_size, order))
            if loads is None:
                stages = stage_plan(request.ctype, chunk_size, order, model.topology)
                loads = tuple(model.stage_loads(stages))
                shapes[chunk_size, order] = loads
            return loads

        orders: list[tuple[int, ...]] = []
        for chunk_size in chunk_sizes:
            order = self._schedule_chunk(probe_ctype, chunk_size, tracker, model)
            loads = loads_of(chunk_size, order)
            if self.overshoot_guard:
                baseline = baseline_dim_order(probe_ctype, tracker.ndims)
                if order != baseline:
                    base_loads = loads_of(chunk_size, baseline)
                    if self._overshoots(tracker, loads, base_loads):
                        order, loads = baseline, base_loads
            tracker.update(loads)
            orders.append(order)
        return orders

    @staticmethod
    def _overshoots(
        tracker: DimLoadTracker,
        loads: tuple[float, ...],
        base_loads: tuple[float, ...],
    ) -> bool:
        """Whether a rerouted chunk's projected max dimension load exceeds
        the baseline order's (the overshoot guard)."""
        current = tracker.get_loads()
        rerouted_max = max(now + add for now, add in zip(current, loads))
        baseline_max = max(now + add for now, add in zip(current, base_loads))
        return rerouted_max > baseline_max


#: Scheduler kinds :class:`SchedulerFactory` builds (the unified registry's
#: ``"scheduler"`` keys and the kinds a cluster job may request).
SCHEDULER_KINDS: tuple[str, ...] = ("baseline", "themis")


class SchedulerFactory:
    """Builds fresh scheduler instances per collective.

    Schedulers are cheap and the Themis tracker resets per collective, so a
    shared instance would work — but a factory keeps the network simulator
    free of hidden state and lets experiments vary splitter parameters.
    """

    def __init__(
        self,
        kind: str = "themis",
        splitter: Splitter | None = None,
        threshold_divisor: float | None = DEFAULT_THRESHOLD_DIVISOR,
        overshoot_guard: bool = False,
    ) -> None:
        kind_lower = kind.lower()
        if kind_lower not in SCHEDULER_KINDS:
            raise ScheduleError(f"unknown scheduler kind {kind!r}")
        self.kind = kind_lower
        self.splitter = splitter or Splitter()
        self.threshold_divisor = threshold_divisor
        self.overshoot_guard = overshoot_guard

    def create(self) -> CollectiveScheduler:
        if self.kind == "baseline":
            return BaselineScheduler(self.splitter)
        return ThemisScheduler(
            self.splitter, self.threshold_divisor, self.overshoot_guard
        )

    @property
    def signature(self) -> tuple:
        """Hashable configuration identity.

        Two factories with equal signatures produce schedulers that emit
        identical plans for identical requests (both built-in schedulers
        are pure per collective), which is what lets the network simulator
        cache plans by ``(signature, request signature)``.
        """
        return (self.kind, self.threshold_divisor, self.overshoot_guard, self.splitter)

    @property
    def name(self) -> str:
        return self.create().name
