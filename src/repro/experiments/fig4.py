"""Fig. 4 reproduction: normalized runtime vs average BW utilization.

For ResNet-152, GNMT and Transformer-1T on the current 2D platform plus
the six Table 2 next-gen topologies, plot how the end-to-end iteration
time shrinks as the network's average BW utilization rises from 10% to
100%, mark the "Inf" (pure-compute) floor, and overlay the utilization the
*baseline* collective scheduling actually achieves (the bold dots).

The analytic curve uses the paper's construction: at utilization ``u`` the
exposed communication takes ``ideal_comm / u`` where ``ideal_comm`` is the
100%-utilization (invariant-bytes / total-BW) time of the iteration's
collectives on their communicators.  Runtimes are normalized to the current
topology's runtime at 10% utilization, exactly as the figure caption says.

Declaratively, the figure is one grid: a base
:class:`~repro.api.TrainingScenario` (baseline scheduler, paper DP
accounting) swept over workload x topology x {ideal, simulated} network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import api
from ..analysis.tables import format_table, pct
from ..topology import PAPER_TOPOLOGY_NAMES
from ..units import MB

UTILIZATION_GRID: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
FIG4_TOPOLOGIES: tuple[str, ...] = ("current-2D", *PAPER_TOPOLOGY_NAMES)


@dataclass
class Fig4Curve:
    """One topology's runtime-vs-utilization curve for one workload."""

    workload: str
    topology: str
    compute_time: float
    ideal_comm_time: float
    baseline_utilization: float
    baseline_runtime: float

    def runtime_at(self, utilization: float) -> float:
        """Iteration time if the network ran at the given avg utilization."""
        if not 0 < utilization <= 1:
            raise ValueError(f"utilization must be in (0, 1], got {utilization}")
        return self.compute_time + self.ideal_comm_time / utilization

    @property
    def ideal_runtime(self) -> float:
        return self.runtime_at(1.0)

    @property
    def inf_runtime(self) -> float:
        """The Inf-BW floor: zero exposed communication."""
        return self.compute_time


@dataclass
class Fig4Result:
    """All curves, keyed by (workload, topology)."""

    curves: dict[tuple[str, str], Fig4Curve] = field(default_factory=dict)

    def curve(self, workload: str, topology: str) -> Fig4Curve:
        return self.curves[(workload, topology)]

    def normalization(self, workload: str) -> float:
        """Slowest-topology runtime at 10% utilization (the figure's 1.0)."""
        return max(
            c.runtime_at(0.1)
            for (w, _t), c in self.curves.items()
            if w == workload
        )

    def render(self) -> str:
        blocks = ["Fig. 4: normalized runtime vs average BW utilization"]
        for workload in sorted({w for w, _ in self.curves}):
            norm = self.normalization(workload)
            rows = []
            for topo in FIG4_TOPOLOGIES:
                if (workload, topo) not in self.curves:
                    continue
                curve = self.curve(workload, topo)
                rows.append(
                    (
                        topo,
                        curve.runtime_at(0.1) / norm,
                        curve.ideal_runtime / norm,
                        curve.inf_runtime / norm,
                        curve.baseline_utilization,
                        curve.baseline_runtime / norm,
                    )
                )
            blocks.append(
                f"\n{workload} (normalized to slowest topology at 10%):\n"
                + format_table(
                    [
                        "topology",
                        "@10%",
                        "@100% (Ideal)",
                        "Inf",
                        "baseline util",
                        "baseline runtime",
                    ],
                    rows,
                    [str, "{:.3f}".format, "{:.3f}".format, "{:.3f}".format,
                     pct, "{:.3f}".format],
                    indent="  ",
                )
            )
        return "\n".join(blocks)


def fig4_sweep(quick: bool = True) -> "tuple[api.TrainingScenario, dict]":
    """The declarative form of Fig. 4: one base spec plus its sweep axes.

    The workload axis couples registry key and factory args (the quick mode
    shrinks the Transformer); the ``ideal_network`` axis yields the curve's
    analytic anchor (True) and the measured baseline dot (False).
    """
    transformer_layers = 8 if quick else 128
    base = api.TrainingScenario(
        scheduler="baseline",
        iterations=1,
        overlap_dp=False,
        dp_bucket_bytes=100 * MB,
    )
    axes = {
        "workload+workload_args": [
            ("resnet-152", {}),
            ("gnmt", {}),
            ("transformer-1t", {"num_layers": transformer_layers}),
        ],
        "topology": list(FIG4_TOPOLOGIES),
        "ideal_network": [True, False],
    }
    return base, axes


def run_fig4(quick: bool = True) -> Fig4Result:
    """Regenerate Fig. 4's curves and baseline dots."""
    base, axes = fig4_sweep(quick)
    grid = api.sweep(base, axes)
    result = Fig4Result()
    for key, _args in axes["workload+workload_args"]:
        for topo_name in FIG4_TOPOLOGIES:
            # Ideal run gives the compute floor and the 100%-util comm time.
            ideal = grid.find(
                workload=key, topology=topo_name, ideal_network=True
            ).report
            # Baseline run gives the measured dot.
            baseline = grid.find(
                workload=key, topology=topo_name, ideal_network=False
            ).report
            workload_name = ideal.payload["workload"]
            result.curves[(workload_name, topo_name)] = Fig4Curve(
                workload=workload_name,
                topology=topo_name,
                compute_time=ideal.payload["compute"],
                ideal_comm_time=ideal.payload["exposed_comm"],
                baseline_utilization=baseline.avg_utilization or 0.0,
                baseline_runtime=baseline.makespan,
            )
    return result
