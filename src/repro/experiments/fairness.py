"""Fairness-comparison experiment: one skewed trace, four sharing policies.

The multi-tenant experiment the cluster fairness layer exists for: a
deliberately *skewed* three-job trace on one shared platform —

* **elephant** — many layers with small parameter tensors, so its gradient
  collectives decompose into a flood of small chunk ops that the SCF
  intra-dimension policy always favors;
* **mouse** — one big parameter tensor, so its chunk ops are large and
  perpetually lose to the elephant's under first-come sharing;
* **urgent** — a latency-sensitive job (``priority=2``) arriving last.

The same trace runs under each cluster fairness policy (FIFO first-come,
static weighted shares, finish-time fair, priority preemption) and the
per-job finish-time-fairness rho, the cluster max/mean rho, and Jain's
fairness index are compared.  The expected shape of the result:

* **FIFO** starves the mouse (max rho far above the others, low Jain);
* **weighted shares** cap the elephant, pulling max rho down;
* **finish-time fair** re-weights online toward equal rho — the lowest max
  rho of the four (strictly lower than FIFO's);
* **preemption** rescues only the urgent job (rho ~1, preemptions > 0) and
  leaves the mouse starved: priority is not fairness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import api
from ..analysis.tables import format_table, ms, ratio
from ..cluster import ClusterReport, JobSpec
from ..cluster.fairness import FAIRNESS
from ..errors import ConfigError
from ..topology import Topology
from ..training.iteration import TrainingConfig
from ..workloads import flood

#: Policies compared, in presentation order.
FAIRNESS_VARIANTS: tuple[str, ...] = ("fifo", "weighted", "ftf", "preempt")


def skewed_trace(scale: float = 1.0) -> list[JobSpec]:
    """The elephant / mouse / urgent trace described in the module docstring.

    ``scale`` multiplies every payload (1.0 suits a small test platform;
    the paper platforms digest larger payloads fine).  The mouse and the
    urgent job carry ``weight=2`` so the static weighted policy has
    something to express; only the urgent job has a priority.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    return [
        JobSpec(
            name="elephant",
            workload=flood(16, 4 * scale, "elephant"),
            arrival_time=0.0,
            iterations=3,
        ),
        JobSpec(
            name="mouse",
            workload=flood(1, 64 * scale, "mouse"),
            arrival_time=1e-4,
            iterations=1,
            weight=2.0,
        ),
        JobSpec(
            name="urgent",
            workload=flood(1, 32 * scale, "urgent"),
            arrival_time=5e-4,
            iterations=1,
            priority=2,
            weight=2.0,
        ),
    ]


@dataclass
class FairnessComparisonResult:
    """Cluster reports for one trace keyed by fairness policy name."""

    topology_name: str
    reports: dict[str, ClusterReport] = field(default_factory=dict)

    def report(self, policy: str) -> ClusterReport:
        return self.reports[policy]

    def max_rho(self, policy: str) -> float:
        value = self.reports[policy].max_rho
        assert value is not None  # isolated baselines always on here
        return value

    def ftf_vs_fifo(self) -> float:
        """Max-rho improvement of finish-time fair over FIFO (>1 = fairer)."""
        return self.max_rho("fifo") / self.max_rho("ftf")

    def render(self) -> str:
        blocks = [
            f"Cluster fairness comparison on {self.topology_name}: one "
            "skewed trace (elephant floods small chunks, mouse has large "
            "chunks, urgent arrives last with priority) under "
            f"{len(self.reports)} sharing policies"
        ]
        for policy, report in self.reports.items():
            blocks.append(f"\n[{policy}]")
            blocks.append(report.describe())
        rows = []
        for policy, report in self.reports.items():
            rows.append(
                (
                    policy,
                    report.makespan,
                    report.mean_jct,
                    report.max_rho,
                    report.mean_rho,
                    report.jains_fairness_index,
                    report.preemption_count,
                )
            )
        blocks.append(
            "\nsummary:\n"
            + format_table(
                ["policy", "makespan", "mean JCT", "max rho", "mean rho",
                 "Jain idx", "preempts"],
                rows,
                [str, ms, ms, ratio, ratio, "{:.3f}".format, str],
                indent="  ",
            )
        )
        if "fifo" in self.reports and "ftf" in self.reports:
            blocks.append(
                f"  finish-time fair vs FIFO: max rho "
                f"{self.max_rho('fifo'):.2f} -> {self.max_rho('ftf'):.2f} "
                f"({self.ftf_vs_fifo():.2f}x fairer)"
            )
        return "\n".join(blocks)


def _training_fields(training: TrainingConfig | None) -> dict:
    """Map a :class:`TrainingConfig` onto ``ClusterScenario`` fields.

    The scenario names exactly the knobs the cluster layer reads; a config
    carrying anything it cannot express (custom compute model, fusion,
    MP priority) is rejected rather than silently dropped.
    """
    if training is None:
        return {}
    default = TrainingConfig()
    unsupported = [
        name
        for name in ("compute", "fusion", "mp_priority")
        if getattr(training, name) != getattr(default, name)
    ]
    if unsupported:
        raise ConfigError(
            f"TrainingConfig fields not expressible in a ClusterScenario: "
            f"{', '.join(unsupported)}"
        )
    return {
        "policy": training.policy,
        "chunks": training.chunks_per_collective,
        "overlap_dp": training.overlap_dp,
        "dp_bucket_bytes": training.dp_bucket_bytes,
    }


def fairness_sweep(
    quick: bool = True,
    topology_name: str = "3D-SW_SW_SW_homo",
    policies: tuple[str, ...] | None = None,
    topology: Topology | None = None,
    jobs: list[JobSpec] | None = None,
    training: TrainingConfig | None = None,
) -> "tuple[api.ClusterScenario, dict]":
    """The declarative form of the comparison: base spec + fairness axis.

    The skewed trace serializes into the spec (flood workloads inline), so
    the whole experiment — and any policy subset of it — is a JSON document
    plus one swept field.
    """
    chosen = tuple(policies or FAIRNESS_VARIANTS)
    for policy in chosen:
        FAIRNESS.lookup(policy)
    trace = list(jobs) if jobs is not None else skewed_trace(
        scale=1.0 if quick else 4.0
    )
    base = api.ClusterScenario(
        topology=topology if topology is not None else topology_name,
        jobs=tuple(api.ScenarioJob.from_jobspec(spec) for spec in trace),
        fairness=chosen[0],
        **_training_fields(training),
    )
    return base, {"fairness": list(chosen)}


def run_fairness_comparison(
    quick: bool = True,
    topology_name: str = "3D-SW_SW_SW_homo",
    policies: tuple[str, ...] | None = None,
    topology: Topology | None = None,
    jobs: list[JobSpec] | None = None,
    training: TrainingConfig | None = None,
) -> FairnessComparisonResult:
    """Run the skewed trace under each fairness policy and compare.

    ``topology`` / ``jobs`` / ``training`` override the defaults (tests
    pass tiny ones); ``policies`` selects a subset of
    :data:`FAIRNESS_VARIANTS`.  ``quick`` controls the trace's payload
    scale on the default platform.
    """
    base, axes = fairness_sweep(
        quick=quick,
        topology_name=topology_name,
        policies=policies,
        topology=topology,
        jobs=jobs,
        training=training,
    )
    grid = api.sweep(base, axes)
    result = FairnessComparisonResult(
        topology_name=grid.points[0].report.payload["topology"]
    )
    for point in grid:
        result.reports[point.overrides["fairness"]] = point.report.detail
    return result
