"""Network-aware automatic job placement for the multi-job simulator.

Themis schedules collectives *given* where a job's communicators land;
until this module, the reproduction pinned every job to a dimension subset
by hand (``JobSpec.dim_indices``).  CASSINI (Rajasekaran et al.) shows the
next win lives one layer up: *where* jobs land decides which jobs contend,
and placing jobs whose communication phases are complementary on the same
links lets them interleave instead of collide.  This module adds that
layer as a pluggable policy, mirroring ``fairness.py``'s shape:

* :class:`ManualPlacement` — today's behavior (the default): each job's
  communicators span exactly its ``JobSpec.dim_indices``;
* :class:`AllDimsPlacement` — every job spans every platform dimension
  (the naive baseline: maximal bandwidth per job, maximal contention);
* :class:`LoadBalancedPlacement` — bin-packing: an arriving job takes the
  dimensions with the least outstanding load, read live from each
  :class:`~repro.sim.executor.DimensionChannel` (outstanding bytes) and
  from the cluster's unfinished-tenant assignment counts, under an
  optional per-dimension tenant capacity;
* :class:`InterleavedPlacement` — CASSINI-style: each job's communication
  duty cycle is estimated from its :class:`~repro.workloads.Workload`
  compute/comm profile (:func:`repro.workloads.comm_compute_profile`), and
  an arriving job takes the dimensions where the duty cycles already
  resident leave the most headroom — comm-heavy jobs land next to
  compute-heavy ones (complementary phases interleave) and away from each
  other (colliding phases serialize).

A policy is a strategy object: :meth:`PlacementPolicy.prepare` is called
once at simulation time zero with the :class:`ClusterSimulator` about to
run; :meth:`PlacementPolicy.place` is called *at each job's arrival event*
and returns the dimension subset (or ``None`` for all dimensions) that
job's communicators will span for its lifetime.  Select one via
``ClusterConfig(placement="interleaved")``, a configured instance, or the
``ClusterScenario.placement`` spec field / ``themis-sim cluster
--placement`` flag.

See ``docs/placement.md`` for definitions, knobs, and a worked example.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from ..errors import ConfigError
from ..registry import Registry
from ..workloads.compute import ComputeModel
from ..workloads.profile import comm_compute_profile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .jobs import JobSpec
    from .simulator import ClusterSimulator


class PlacementPolicy(abc.ABC):
    """Assigns each arriving job the dimension subset it will span."""

    #: Registry key (``ClusterConfig(placement=<name>)``).
    name: str = "abstract"
    #: Human-readable label for reports.
    label: str = "?"

    def prepare(self, cluster: "ClusterSimulator") -> None:
        """Reset per-run state before ``cluster``'s jobs start (t=0)."""

    @abc.abstractmethod
    def place(
        self, spec: "JobSpec", cluster: "ClusterSimulator"
    ) -> "tuple[int, ...] | None":
        """Dimension subset for ``spec``, decided at its arrival instant.

        ``None`` means all platform dimensions.  Called exactly once per
        job, in arrival order, with the shared network's live state
        readable through ``cluster`` — the decision is permanent (no
        migration), exactly like a real scheduler binding communicators at
        job start.
        """

    def describe(self) -> str:
        """One-line policy description for report headers."""
        return self.label

    # --- shared helpers -----------------------------------------------------
    @staticmethod
    def _width(spec: "JobSpec", ndims: int, dims_per_job: int | None) -> int:
        """How many dimensions the arriving job should span.

        Explicit ``dims_per_job`` wins; otherwise a job that hand-declared
        ``dim_indices`` keeps its declared width, and everything else gets
        one dimension (the narrowest slice — placement then decides which).
        """
        if dims_per_job is not None:
            width = dims_per_job
        elif spec.dim_indices is not None:
            width = len(spec.dim_indices)
        else:
            width = 1
        return max(1, min(width, ndims))


class ManualPlacement(PlacementPolicy):
    """Hand placement (the default): honor ``JobSpec.dim_indices`` as-is.

    Bit-for-bit identical to the pre-placement-layer behavior — the policy
    exists so hand placement can be *named* in reports and compared against
    the automatic policies.
    """

    name = "manual"
    label = "Manual (JobSpec.dim_indices)"

    def place(
        self, spec: "JobSpec", cluster: "ClusterSimulator"
    ) -> "tuple[int, ...] | None":
        return spec.dim_indices


class AllDimsPlacement(PlacementPolicy):
    """Every job spans every dimension (maximal bandwidth, maximal contention).

    The natural naive baseline: each job sees the platform's full aggregate
    bandwidth, but every pair of jobs contends on every wire — and a
    hierarchical collective over D dimensions also moves more total bytes
    per NPU than one over a subset, so the network carries strictly more
    load than under any narrower placement.
    """

    name = "all-dims"
    label = "All dimensions"

    def place(
        self, spec: "JobSpec", cluster: "ClusterSimulator"
    ) -> "tuple[int, ...] | None":
        return None


class LoadBalancedPlacement(PlacementPolicy):
    """Bin-packing on live per-dimension load.

    An arriving job takes the least-loaded dimensions, where load is read
    at the arrival instant as ``(outstanding bytes, unfinished tenants
    assigned)`` — the outstanding bytes live from each
    :class:`DimensionChannel` (enqueued but uncompleted work, so a
    dimension digesting a backlog looks as busy as it is even if the
    arriving instant falls between its batches), the tenant count from the
    cluster's placement records as the tie-break (it is the only signal in
    an arrival burst, before anyone has enqueued a byte).

    Parameters
    ----------
    dims_per_job:
        Dimensions each auto-placed job spans.  ``None`` (default) keeps a
        job's declared ``dim_indices`` width, or 1 when it declared none.
    capacity:
        Optional cap on unfinished tenants per dimension.  Dimensions at
        capacity are skipped while any dimension below it remains; when
        every dimension is saturated the job overflows onto the least-
        loaded ones (the cluster admits jobs rather than queueing them).
    """

    name = "load-balanced"
    label = "Load-balanced bin-packing"

    def __init__(
        self, dims_per_job: int | None = None, capacity: int | None = None
    ) -> None:
        if dims_per_job is not None and dims_per_job < 1:
            raise ConfigError(
                f"dims_per_job must be >= 1, got {dims_per_job}"
            )
        if capacity is not None and capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.dims_per_job = dims_per_job
        self.capacity = capacity

    def place(
        self, spec: "JobSpec", cluster: "ClusterSimulator"
    ) -> "tuple[int, ...] | None":
        ndims = len(cluster.topology.dims)
        width = self._width(spec, ndims, self.dims_per_job)
        counts = cluster.dim_assigned_counts
        ranked = sorted(
            range(ndims),
            key=lambda d: (
                cluster.network.channels[d].outstanding_bytes,
                counts[d],
                d,
            ),
        )
        if self.capacity is not None:
            open_dims = [d for d in ranked if counts[d] < self.capacity]
            full_dims = [d for d in ranked if counts[d] >= self.capacity]
            ranked = open_dims + full_dims  # overflow only when saturated
        chosen = tuple(sorted(ranked[:width]))
        return None if len(chosen) == ndims else chosen

    def describe(self) -> str:
        width = "job width" if self.dims_per_job is None else self.dims_per_job
        cap = "unbounded" if self.capacity is None else self.capacity
        return f"{self.label} (dims/job={width}, capacity={cap})"


class InterleavedPlacement(PlacementPolicy):
    """CASSINI-style placement on communication duty cycles.

    Each job's communication duty cycle — the fraction of an iteration its
    collectives keep the network busy, estimated analytically from its
    workload's compute/comm profile — is treated as the bandwidth-time it
    occupies on whichever dimensions it lands on.  An arriving job takes
    the dimensions where adding its duty cycle to the duty already resident
    overflows 1.0 the least: comm-heavy jobs are steered next to
    compute-heavy jobs (their phases interleave in time) and away from
    other comm-heavy jobs (their phases collide and serialize).  Ties break
    on the bin-packing load signals, so with homogeneous jobs the policy
    degrades gracefully to :class:`LoadBalancedPlacement`.

    Parameters
    ----------
    dims_per_job:
        As for :class:`LoadBalancedPlacement`.
    compute:
        Roofline model for the duty-cycle estimates (defaults to the same
        A100 roofline the training simulator uses).
    """

    name = "interleaved"
    label = "Interleaved (CASSINI-style duty cycles)"

    def __init__(
        self,
        dims_per_job: int | None = None,
        compute: ComputeModel | None = None,
    ) -> None:
        if dims_per_job is not None and dims_per_job < 1:
            raise ConfigError(
                f"dims_per_job must be >= 1, got {dims_per_job}"
            )
        self.dims_per_job = dims_per_job
        self.compute = compute or ComputeModel()
        #: ``job name -> {dim index: duty cycle}`` of placed jobs, rebuilt
        #: per run so one configured instance can be reused.
        self._duty: dict[str, dict[int, float]] = {}

    def prepare(self, cluster: "ClusterSimulator") -> None:
        self._duty = {}

    def _resident_duty(self, cluster: "ClusterSimulator") -> list[float]:
        """Summed duty cycles of unfinished placed jobs, per dimension.

        Iterates ``cluster.live_jobs`` — the simulator's insertion-ordered
        admitted-and-unfinished map — so the float summation order is the
        deterministic admission order (never a hash-salted set) and each
        arrival costs O(live jobs), not O(trace length).
        """
        ndims = len(cluster.topology.dims)
        resident = [0.0] * ndims
        for job_name in cluster.live_jobs:
            by_dim = self._duty.get(job_name)
            if by_dim is None:
                continue
            for dim_index, duty in by_dim.items():
                resident[dim_index] += duty
        return resident

    def place(
        self, spec: "JobSpec", cluster: "ClusterSimulator"
    ) -> "tuple[int, ...] | None":
        ndims = len(cluster.topology.dims)
        width = self._width(spec, ndims, self.dims_per_job)
        resident = self._resident_duty(cluster)
        counts = cluster.dim_assigned_counts
        # The profile is bandwidth-independent: compute it once, then read
        # the duty cycle off each dimension's bandwidth.
        profile = comm_compute_profile(spec.resolve_workload(), self.compute)
        duty_here = [
            profile.duty_cycle(cluster.topology.dims[d].bandwidth)
            for d in range(ndims)
        ]
        ranked = sorted(
            range(ndims),
            key=lambda d: (
                # Duty overflow past a full wire = expected collision.
                max(0.0, resident[d] + duty_here[d] - 1.0),
                resident[d],
                cluster.network.channels[d].outstanding_bytes,
                counts[d],
                d,
            ),
        )
        chosen = tuple(sorted(ranked[:width]))
        self._duty[spec.name] = {d: duty_here[d] for d in chosen}
        return None if len(chosen) == ndims else chosen

    def describe(self) -> str:
        width = "job width" if self.dims_per_job is None else self.dims_per_job
        return f"{self.label} (dims/job={width})"


#: Placement policies by (case-insensitive) name, sorted.  A name becomes
#: valid everywhere policies are selected by key:
#: ``ClusterConfig(placement=name)``, ``ClusterScenario.placement`` and the
#: CLI's ``--placement`` choices.
PLACEMENT: Registry[PlacementPolicy] = Registry(
    "placement policy",
    {
        "all-dims": AllDimsPlacement,
        "interleaved": InterleavedPlacement,
        "load-balanced": LoadBalancedPlacement,
        "manual": ManualPlacement,
    },
    error=ConfigError,
)
placement_names = PLACEMENT.names
register_placement = PLACEMENT.register


def get_placement(
    policy: "str | PlacementPolicy | None",
) -> PlacementPolicy | None:
    """Resolve a placement policy: name, configured instance, or ``None``.

    ``None`` means the implicit default (hand placement from
    ``JobSpec.dim_indices``) with no policy object attached; ``"manual"``
    is the same behavior but named in reports.
    """
    if policy is None or isinstance(policy, PlacementPolicy):
        return policy
    return PLACEMENT.build(policy)
