"""The fluid fast-path backend: flow-level channels, rate-change events only.

The analytical backend's event count scales with chunks × stages × flows:
every chunk-op is at least two events, so a 64-chunk All-Reduce on a 3D
platform fires hundreds of events even when nothing contends.  The fluid
backend keeps the exact engine, channels, schedulers, fairness hooks, and
fault machinery, but changes *execution granularity*: shared
:class:`~repro.sim.executor.DimensionChannel` flows advance analytically
between rate-change points.  A flow's bandwidth share is constant until
some flow arrives, completes, or a fault/weight event fires, so its
bytes-remaining integrate in closed form and only the *next rate-change
event* is scheduled — no per-chunk events while rates are stable.

Concretely, :class:`FluidNetwork` is a :class:`NetworkSimulator` whose

* channels run in weighted GPS sharing mode from construction (the
  shared wire's virtual clock — each flow's finish tag fixed at its
  start, one finish event armed per channel for the smallest tag — *is*
  the fluid model; the serial per-chunk wire is simply never used);
* plans are **fluidized** (:meth:`FluidNetwork._build_chunk_ops`): the
  exact scheduler still plans every collective — plan decisions stay
  exact — but the resulting chunk train collapses into one aggregate flow
  per traversed dimension (bytes and transfer seconds summed, the fixed
  latency ``A_K`` carried once as the pipeline tail, exactly as the exact
  wire pays it).  The aggregate is computed once per plan-cache key, from
  the op costs the planner caches beside the plan.  Per-dimension flows
  start concurrently, modeling the chunk pipeline's dimension overlap;
  the collective completes when its slowest dimension drains.  The
  modeling error is the pipeline fill/drain skew the collapse hides — a
  ``(ndims − 1)/chunks`` fraction of a dimension's work — which the
  hybrid bounds via ``tolerance``.

The **hybrid escape hatch** falls back to the exact per-chunk event path
where precision matters (``hybrid=True``, the default):

* **plan decisions** are always exact — fluidization happens after the
  scheduler has planned, never changes what it sees;
* **fault transitions** always take the exact path: a capacity change
  advances each channel's virtual clock at the old rate and re-arms its
  finish event at the new one, as on the analytical backend's shared
  wire, so byte conservation holds across every rate-change point;
* **priority preemption boundaries**: arming preemption switches the
  channels to strict-priority sharing (only the highest-priority in-flight
  flows get rate; lower-priority flows park with their progress kept)
  *and* keeps collectives at exact chunk granularity, so
  preemption points land at chunk boundaries as they do on the serial
  wire;
* **coarse multi-dimensional plans**, where the fill/drain skew exceeds
  ``tolerance``, keep exact granularity rather than hide the error.

See ``docs/backends.md`` for the model, options, and tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...collectives.phases import Stage
from ...errors import ConfigError
from ..executor import OpState
from ..network import NetworkSimulator, PlanCosts, build_chunk_ops

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...collectives.types import CollectiveRequest
    from ...core.policies import IntraDimPolicy
    from ...core.scheduler import SchedulerFactory
    from ...topology import Topology
    from ..engine import EventQueue
    from ..executor import FusionConfig


@dataclass(frozen=True)
class FluidOptions:
    """Knobs of the fluid backend (a scenario's ``backend_options``).

    ``tolerance`` is the accepted per-collective modeling-error budget:
    collapsing a chunk train hides the pipeline fill/drain skew, a
    ``(ndims − 1)/chunks`` fraction of a dimension's work, so with
    ``hybrid`` on, multi-dimensional plans where that fraction exceeds
    ``tolerance`` keep exact chunk granularity.  ``hybrid=False`` fluidizes
    everything regardless (fastest, coarsest); fault transitions stay
    exact either way.
    """

    tolerance: float = 0.05
    hybrid: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.tolerance <= 1.0:
            raise ConfigError(
                f"tolerance must be within [0, 1], got {self.tolerance}"
            )


class FluidNetwork(NetworkSimulator):
    """Flow-level network simulator: see the module docstring for the model.

    It has the analytical backend's capabilities.
    """

    key = "fluid"
    description = (
        "flow-level fast path: closed-form shared channels, rate-change "
        "events only (512-4096-job runs)"
    )
    options_type = FluidOptions

    def __init__(
        self,
        topology: "Topology",
        scheduler: "SchedulerFactory | None" = None,
        policy: "str | IntraDimPolicy" = "SCF",
        fusion: "FusionConfig | None" = None,
        engine: "EventQueue | None" = None,
        record_ops: bool = True,
        audit: bool | None = None,
        options: FluidOptions | None = None,
    ) -> None:
        super().__init__(
            topology,
            scheduler=scheduler,
            policy=policy,
            fusion=fusion,
            engine=engine,
            record_ops=record_ops,
            audit=audit,
        )
        self.options = options or FluidOptions()
        #: Set by :meth:`enable_preemption`; with ``hybrid`` on it pins
        #: collectives to exact chunk granularity (preemption boundaries
        #: are precision points).
        self._preemption_armed = False
        #: ``plan key -> op costs to run``: a fluidized plan's aggregate,
        #: or the plan's own costs when it is too coarse to fluidize.
        self._run_costs: dict[tuple, PlanCosts] = {}
        # The channels run in GPS sharing mode from the first byte: the
        # closed-form flow integrator is the fluid model.  Enabling it
        # before anything is in flight also means the serial-wire guard in
        # set_share_weights can never trip.
        for channel in self.channels:
            channel.set_share_weights({}, default=1.0)

    # --- fairness ----------------------------------------------------------
    def enable_preemption(self) -> None:
        """Arm fluid preemption: strict-priority rates, exact boundaries.

        Only the highest-priority in-flight flows on a dimension receive
        bandwidth; lower-priority flows park with their progress kept (each
        parked flow that had drained since its class last ran counts one
        preemption).  With ``hybrid`` on, collectives additionally keep
        exact chunk granularity so preemption points land at chunk
        boundaries, matching the serial wire's precision.
        """
        self._preemption_armed = True
        for channel in self.channels:
            channel.enable_priority_sharing()

    # --- execution granularity --------------------------------------------
    def _build_chunk_ops(
        self, request: "CollectiveRequest", costs: PlanCosts, plan_key: tuple | None
    ) -> list[list[OpState]]:
        # Arming preemption pins every later collective to chunk
        # granularity, so it is checked per call, never cached.
        if not (self.options.hybrid and self._preemption_armed):
            run_costs = self._run_costs.get(plan_key) if plan_key is not None else None
            if run_costs is None:
                run_costs = self._fluidize(costs)
                if plan_key is not None:
                    self._run_costs[plan_key] = run_costs
            costs = run_costs
        return build_chunk_ops(request, costs)

    def _fluidize(self, costs: PlanCosts) -> PlanCosts:
        """The op costs a plan runs at: collapsed to per-dimension flows,
        or ``costs`` itself when the hybrid keeps it at chunk granularity."""
        # One aggregate single-stage pseudo-chunk per traversed dimension,
        # in first-traversal order (deterministic: plan order, no sets).
        # All of them enqueue immediately — stage 0 of every chunk — so the
        # per-dimension flows run concurrently, modeling the chunk train's
        # dimension overlap; the collective completes when the last
        # dimension drains.  Bytes and transfer seconds are the exact
        # plan's sums, so byte conservation is untouched; the fixed latency
        # is carried once per dimension, exactly as the exact wire pays it
        # (a pipeline tail, not a per-chunk cost).
        firsts: list[tuple[Stage, int]] = []
        totals: dict[int, list[float]] = {}
        for chunk in costs:
            for stage, parent_dim, nbytes, transfer, fixed in chunk:
                bucket = totals.get(stage.dim_index)
                if bucket is None:
                    firsts.append((stage, parent_dim))
                    totals[stage.dim_index] = bucket = [0.0, 0.0, 0.0, 0.0]
                bucket[0] += nbytes
                bucket[1] += transfer
                if fixed > bucket[2]:
                    bucket[2] = fixed
                bucket[3] += stage.stage_size
        options = self.options
        if options.hybrid and len(firsts) - 1 > options.tolerance * len(costs):
            return costs
        return tuple(
            (
                (
                    Stage(dim_index=first.dim_index, op=first.op, stage_size=size),
                    parent_dim,
                    nbytes,
                    transfer,
                    fixed,
                ),
            )
            for (first, parent_dim), (nbytes, transfer, fixed, size) in zip(
                firsts, totals.values()
            )
        )
