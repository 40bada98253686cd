"""Placement-comparison experiment: one skewed trace, four placement policies.

The multi-tenant experiment the placement layer exists for: a deliberately
*skewed* trace on one shared platform —

* **talkers** — comm-bound jobs (many medium gradient tensors, almost no
  compute) whose communication duty cycle is ~1: they keep whatever
  dimensions they land on busy for essentially their whole lifetime;
* **thinkers** — compute-bound jobs (tiny gradients, heavy FLOPs) whose
  duty cycle is ~0: they barely touch the wire.

The trace carries *twice as many talkers as the platform has dimensions*:
the cluster's communication demand exceeds any single dimension's
capacity, so where the talkers land decides everything.  The same trace
runs under each placement policy (and under Baseline vs Themis collective
scheduling, per job), and makespan, mean JCT, per-job rho, and the
per-dimension load-imbalance metric are compared.  The expected shape of
the result:

* **all-dims** loses on mean JCT: every talker's collectives span — and
  contend on — every dimension, so the whole talker population advances at
  the cluster-wide rate and every talker finishes late (processor-sharing
  across k tenants makes every JCT ~k/D of the work), where narrow
  placements let early talkers finish in their own dimension's time;
* **load-balanced** spreads the talkers evenly (two per dimension) by live
  tenant counts/outstanding bytes, cutting mean JCT and the load
  imbalance;
* **interleaved** places the same talkers apart because their duty cycles
  collide, and additionally steers them away from dimensions that look
  idle by instantaneous load but are duty-saturated — on this trace it
  matches or beats load-balanced;
* **manual** is whatever the hand placement says — here a round-robin
  pinning by arrival order, a decent static choice: automatic placement
  should match it without the hand effort (and without knowing the trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import api
from ..analysis.tables import format_table, ms, ratio
from ..cluster import ClusterReport, JobSpec
from ..cluster.placement import PLACEMENT
from ..errors import ConfigError
from ..topology import Topology
from ..training.iteration import TrainingConfig
from ..workloads import Workload, flood
from .fairness import _training_fields

#: Policies compared, in presentation order.
PLACEMENT_VARIANTS: tuple[str, ...] = (
    "manual", "all-dims", "load-balanced", "interleaved",
)

#: Per-job collective schedulers compared (the paper's axis).
PLACEMENT_SCHEDULERS: tuple[str, ...] = ("baseline", "themis")


def _talker(index: int, scale: float) -> Workload:
    """Comm-bound workload: duty cycle ~1 on a paper-platform dimension."""
    return flood(8, 16 * scale, f"talker{index}")


def _thinker(index: int, scale: float) -> Workload:
    """Compute-bound workload: heavy FLOPs, tiny gradients, duty ~0."""
    return flood(
        2, 0.5 * scale, f"thinker{index}", fwd_flops=6e10, bwd_flops=1.2e11
    )


def placement_trace(scale: float = 1.0, ndims: int = 3) -> list[JobSpec]:
    """The talkers/thinkers trace described in the module docstring.

    ``2 x ndims`` talkers plus ``ndims + 1`` thinkers, arrivals staggered
    and mixed, so the communication demand is twice what one dimension can
    carry.  ``scale`` multiplies every payload; ``ndims`` is the dimension
    count of the platform the trace will run on (the hand placement pins
    jobs round-robin across it, in arrival order).
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    if ndims < 2:
        raise ConfigError(f"need a >= 2D platform, got {ndims}")
    gap = 2e-4
    specs: list[JobSpec] = []
    talkers = 2 * ndims
    thinkers = ndims + 1
    # Arrival order alternates talker / thinker until the thinkers run out.
    order: list[tuple[str, int]] = []
    for i in range(max(talkers, thinkers)):
        if i < talkers:
            order.append(("talker", i))
        if i < thinkers:
            order.append(("thinker", i))
    for arrival_index, (kind, i) in enumerate(order):
        workload = _talker(i, scale) if kind == "talker" else _thinker(i, scale)
        specs.append(
            JobSpec(
                name=f"{kind}{i}",
                workload=workload,
                arrival_time=arrival_index * gap,
                iterations=2,
            )
        )
    # Hand placement for the "manual" baseline: round-robin by arrival.
    return [
        replace(spec, dim_indices=(index % ndims,))
        for index, spec in enumerate(specs)
    ]


@dataclass
class PlacementComparisonResult:
    """Cluster reports for one trace keyed by (placement, scheduler)."""

    topology_name: str
    reports: dict[tuple[str, str], ClusterReport] = field(default_factory=dict)

    def report(self, placement: str, scheduler: str = "themis") -> ClusterReport:
        return self.reports[(placement, scheduler)]

    def mean_jct(self, placement: str, scheduler: str = "themis") -> float:
        value = self.reports[(placement, scheduler)].mean_jct
        assert value is not None  # every job completes in this experiment
        return value

    def makespan(self, placement: str, scheduler: str = "themis") -> float:
        return self.reports[(placement, scheduler)].makespan

    def auto_vs_all_dims(self, scheduler: str = "themis") -> float:
        """Mean-JCT improvement of the best automatic policy over all-dims."""
        best = min(
            self.mean_jct(policy, scheduler)
            for policy in ("load-balanced", "interleaved")
            if (policy, scheduler) in self.reports
        )
        return self.mean_jct("all-dims", scheduler) / best

    def render(self) -> str:
        blocks = [
            f"Cluster placement comparison on {self.topology_name}: one "
            "skewed trace (comm-bound talkers outnumbering the dimensions, "
            f"compute-bound thinkers mixed in) under "
            f"{len(self.reports)} placement x scheduler variants"
        ]
        for (placement, scheduler), report in self.reports.items():
            blocks.append(f"\n[{placement} / {scheduler}]")
            blocks.append(report.describe())
        rows = []
        for (placement, scheduler), report in self.reports.items():
            rows.append(
                (
                    placement,
                    scheduler,
                    report.makespan,
                    report.mean_jct,
                    report.max_rho,
                    report.load_imbalance
                    if report.load_imbalance is not None
                    else float("nan"),
                )
            )
        blocks.append(
            "\nsummary:\n"
            + format_table(
                ["placement", "sched", "makespan", "mean JCT", "max rho",
                 "load imb"],
                rows,
                [str, str, ms, ms, ratio, "{:.2f}".format],
                indent="  ",
            )
        )
        schedulers = sorted({s for _, s in self.reports})
        for scheduler in schedulers:
            if ("all-dims", scheduler) in self.reports:
                try:
                    gain = self.auto_vs_all_dims(scheduler)
                except ValueError:
                    continue
                blocks.append(
                    f"  automatic vs all-dims ({scheduler}): mean JCT "
                    f"{gain:.2f}x better"
                )
        return "\n".join(blocks)


def placement_sweep(
    quick: bool = True,
    topology_name: str = "3D-SW_SW_SW_homo",
    policies: tuple[str, ...] | None = None,
    schedulers: tuple[str, ...] | None = None,
    topology: Topology | None = None,
    jobs: list[JobSpec] | None = None,
    training: TrainingConfig | None = None,
) -> "tuple[api.ClusterScenario, dict]":
    """The declarative form of the comparison: base spec + placement axis.

    The skewed trace serializes into the spec (flood workloads inline), so
    the whole experiment — and any policy/scheduler subset of it — is a
    JSON document plus two swept fields.  The scheduler axis couples every
    job's ``scheduler`` field, comparing an all-Baseline against an
    all-Themis cluster under each placement.
    """
    chosen = tuple(policies or PLACEMENT_VARIANTS)
    for policy in chosen:
        PLACEMENT.lookup(policy)
    sched = tuple(schedulers or PLACEMENT_SCHEDULERS)
    if topology is not None:
        ndims = len(topology.dims)
    else:
        from ..topology import get_topology

        ndims = len(get_topology(topology_name).dims)
    trace = list(jobs) if jobs is not None else placement_trace(
        scale=1.0 if quick else 4.0, ndims=ndims
    )
    base = api.ClusterScenario(
        topology=topology if topology is not None else topology_name,
        jobs=tuple(api.ScenarioJob.from_jobspec(spec) for spec in trace),
        placement=chosen[0],
        **_training_fields(training),
    )
    axes: dict = {"placement": list(chosen)}
    if len(sched) > 1 or sched[0] != trace[0].scheduler:
        fields = tuple(f"jobs.{i}.scheduler" for i in range(len(trace)))
        axes[fields] = [tuple([s] * len(trace)) for s in sched]
    return base, axes


def run_placement_comparison(
    quick: bool = True,
    topology_name: str = "3D-SW_SW_SW_homo",
    policies: tuple[str, ...] | None = None,
    schedulers: tuple[str, ...] | None = None,
    topology: Topology | None = None,
    jobs: list[JobSpec] | None = None,
    training: TrainingConfig | None = None,
) -> PlacementComparisonResult:
    """Run the skewed trace under each placement x scheduler and compare.

    ``topology`` / ``jobs`` / ``training`` override the defaults (tests
    pass tiny ones); ``policies`` / ``schedulers`` select subsets of
    :data:`PLACEMENT_VARIANTS` / :data:`PLACEMENT_SCHEDULERS`.  ``quick``
    controls the trace's payload scale on the default platform.
    """
    base, axes = placement_sweep(
        quick=quick,
        topology_name=topology_name,
        policies=policies,
        schedulers=schedulers,
        topology=topology,
        jobs=jobs,
        training=training,
    )
    grid = api.sweep(base, axes)
    result = PlacementComparisonResult(
        topology_name=grid.points[0].report.payload["topology"]
    )
    for point in grid:
        placement = point.overrides["placement"]
        scheduler = point.overrides.get("jobs.0.scheduler")
        if scheduler is None:
            scheduler = base.jobs[0].scheduler
        result.reports[(placement, scheduler)] = point.report.detail
    return result
