"""The paper's abstract-level headline numbers, in one harness.

"Themis can improve the network BW utilization of the single All-Reduce by
1.72x (2.70x max) [reaching] 95.14% BW utilization, and improve the
end-to-end training iteration performance of ResNet-152, GNMT, DLRM, and
Transformer-1T by 1.49x (2.25x max), 1.30x (1.78x max), 1.30x (1.77x max),
and 1.25x (1.53x max)."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.tables import format_table, pct
from .fig8 import Fig8Result, run_fig8
from .fig11 import Fig11Result
from .fig12 import Fig12Result, run_fig12

#: The abstract's numbers, for paper-vs-measured tables.
PAPER_HEADLINES = {
    "ar_speedup_mean": 1.72,
    "ar_speedup_max": 2.70,
    "scf_utilization": 0.9514,
    "e2e": {
        "ResNet-152": (1.49, 2.25),
        "GNMT": (1.30, 1.78),
        "DLRM": (1.30, 1.77),
        "Transformer-1T": (1.25, 1.53),
    },
}


@dataclass
class HeadlineResult:
    """Measured headline numbers alongside the paper's."""

    ar_speedup_mean: float = 0.0
    ar_speedup_max: float = 0.0
    scf_utilization: float = 0.0
    baseline_utilization: float = 0.0
    e2e: dict[str, tuple[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            (
                "single-AR speedup (mean)",
                f"{self.ar_speedup_mean:.2f}x",
                f"{PAPER_HEADLINES['ar_speedup_mean']:.2f}x",
            ),
            (
                "single-AR speedup (max)",
                f"{self.ar_speedup_max:.2f}x",
                f"{PAPER_HEADLINES['ar_speedup_max']:.2f}x",
            ),
            (
                "Themis+SCF BW utilization",
                pct(self.scf_utilization),
                pct(PAPER_HEADLINES["scf_utilization"]),
            ),
        ]
        for workload, (mean, peak) in self.e2e.items():
            paper_mean, paper_max = PAPER_HEADLINES["e2e"][workload]
            rows.append(
                (
                    f"{workload} E2E speedup",
                    f"{mean:.2f}x ({peak:.2f}x max)",
                    f"{paper_mean:.2f}x ({paper_max:.2f}x max)",
                )
            )
        return "Headline results (measured vs paper):\n" + format_table(
            ["metric", "measured", "paper"], rows
        )


def run_headline(quick: bool = True) -> HeadlineResult:
    """Measure every abstract headline (quick mode trims sweep points)."""
    return headline_from(run_fig8(quick=quick), run_fig12(quick=quick))


def headline_from(fig8: Fig8Result, fig12: Fig12Result) -> HeadlineResult:
    """The abstract's numbers from a Fig. 8 and a Fig. 12 result."""
    fig11 = Fig11Result(records=fig8.records)  # Fig. 11 reports Fig. 8's grid
    result = HeadlineResult(
        ar_speedup_mean=fig8.mean_speedup("Themis+SCF"),
        ar_speedup_max=fig8.max_speedup("Themis+SCF"),
        scf_utilization=fig11.mean_utilization("Themis+SCF"),
        baseline_utilization=fig11.mean_utilization("Baseline"),
    )
    for workload in fig12.workload_names():
        result.e2e[workload] = (
            fig12.mean_speedup(workload, "Themis+SCF"),
            fig12.max_speedup(workload, "Themis+SCF"),
        )
    return result
