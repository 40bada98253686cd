"""Fig. 11 reproduction: average BW utilization vs All-Reduce size.

Fig. 8's sweep, reported as the paper's average BW utilization (the
records of one :func:`~repro.experiments.fig8.run_fig8` grid).
Headline: averaged over all topologies and sizes, baseline reaches 56.31%,
Themis+FIFO 87.67%, and Themis+SCF 95.14%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.sweep import MicrobenchRecord
from ..analysis.tables import format_table, pct
from ..units import MB
from .fig8 import run_fig8


@dataclass
class Fig11Result:
    """Per-(topology, size) utilizations plus per-scheduler averages."""

    records: list[MicrobenchRecord] = field(default_factory=list)

    def utilizations(self, scheduler: str) -> list[float]:
        return [r.utilization for r in self.records if r.scheduler == scheduler]

    def mean_utilization(self, scheduler: str) -> float:
        values = self.utilizations(scheduler)
        return sum(values) / len(values)

    def render(self) -> str:
        groups: dict[tuple[str, float], dict[str, float]] = {}
        for record in self.records:
            groups.setdefault((record.topology_name, record.size), {})[
                record.scheduler
            ] = record.utilization
        rows = [
            (
                topo,
                f"{size / MB:.0f}MB",
                group.get("Baseline", float("nan")),
                group.get("Themis+FIFO", float("nan")),
                group.get("Themis+SCF", float("nan")),
            )
            for (topo, size), group in sorted(groups.items())
        ]
        table = format_table(
            ["topology", "size", "Baseline", "Themis+FIFO", "Themis+SCF"],
            rows,
            [str, str, pct, pct, pct],
        )
        summary = (
            f"\nmean utilization: Baseline {self.mean_utilization('Baseline'):.1%} "
            f"(paper 56.31%), Themis+FIFO "
            f"{self.mean_utilization('Themis+FIFO'):.1%} (paper 87.67%), "
            f"Themis+SCF {self.mean_utilization('Themis+SCF'):.1%} (paper 95.14%)"
        )
        return "Fig. 11: average BW utilization vs collective size\n" + table + summary


def run_fig11(quick: bool = False, chunks: int = 64) -> Fig11Result:
    """Regenerate Fig. 11 over the six Table 2 topologies."""
    return Fig11Result(records=run_fig8(quick=quick, chunks=chunks).records)
