"""Fig. 8 reproduction: All-Reduce communication time, 100 MB - 1 GB.

For every Table 2 topology and collective size, compare the total
communication time of Baseline, Themis+FIFO, and Themis+SCF.  The paper's
headline from this figure: averaged over all topologies and sizes,
Themis+FIFO is 1.58x and Themis+SCF 1.72x faster than the baseline.

The whole experiment is one declarative grid — a base
:class:`~repro.api.CollectiveScenario` swept over topology x size x
(scheduler, policy) — so any slice of it can be re-run from a JSON spec
via ``themis-sim run --spec`` / ``themis-sim sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import api
from ..analysis.sweep import MicrobenchRecord, geometric_mean
from ..analysis.tables import format_table, ms, ratio
from ..collectives.types import CollectiveType
from ..topology import PAPER_TOPOLOGY_NAMES
from ..units import GB, MB

#: The paper's three simulated configurations as a coupled sweep axis.
SCHEDULER_AXIS: tuple[tuple[str, str], ...] = (
    ("baseline", "FIFO"),
    ("themis", "FIFO"),
    ("themis", "SCF"),
)

#: Paper's microbenchmark size range (Sec. 6.1): 100 MB to 1 GB.
DEFAULT_SIZES: tuple[float, ...] = (100 * MB, 250 * MB, 500 * MB, GB)
QUICK_SIZES: tuple[float, ...] = (100 * MB, GB)


@dataclass
class Fig8Result:
    """Per-(topology, size) communication times plus speedup summaries."""

    records: list[MicrobenchRecord] = field(default_factory=list)

    def _by_key(self) -> dict[tuple[str, float], dict[str, MicrobenchRecord]]:
        table: dict[tuple[str, float], dict[str, MicrobenchRecord]] = {}
        for record in self.records:
            table.setdefault((record.topology_name, record.size), {})[
                record.scheduler
            ] = record
        return table

    def speedups(self, scheduler: str) -> list[float]:
        """Baseline-time / scheduler-time per (topology, size) point."""
        return [
            group["Baseline"].comm_time / group[scheduler].comm_time
            for group in self._by_key().values()
            if "Baseline" in group and scheduler in group
        ]

    def mean_speedup(self, scheduler: str) -> float:
        return geometric_mean(self.speedups(scheduler))

    def max_speedup(self, scheduler: str) -> float:
        return max(self.speedups(scheduler))

    def render(self) -> str:
        headers = ["topology", "size", "Baseline", "Themis+FIFO", "Themis+SCF",
                   "SCF speedup"]
        rows = []
        for (topo, size), group in sorted(self._by_key().items()):
            rows.append(
                (
                    topo,
                    f"{size / MB:.0f}MB",
                    group["Baseline"].comm_time,
                    group["Themis+FIFO"].comm_time,
                    group["Themis+SCF"].comm_time,
                    group["Baseline"].comm_time / group["Themis+SCF"].comm_time,
                )
            )
        table = format_table(
            headers, rows, [str, str, ms, ms, ms, ratio]
        )
        summary = (
            f"\nmean speedup: Themis+FIFO {self.mean_speedup('Themis+FIFO'):.2f}x "
            f"(paper 1.58x), Themis+SCF {self.mean_speedup('Themis+SCF'):.2f}x "
            f"(paper 1.72x, 2.70x max; measured max "
            f"{self.max_speedup('Themis+SCF'):.2f}x)"
        )
        return "Fig. 8: All-Reduce communication time\n" + table + summary


def fig8_sweep(
    quick: bool = False, chunks: int = 64
) -> "tuple[api.CollectiveScenario, dict]":
    """The declarative form of Fig. 8: one base spec plus its sweep axes."""
    sizes = list(QUICK_SIZES if quick else DEFAULT_SIZES)
    base = api.CollectiveScenario(chunks=chunks)
    axes = {
        "topology": list(PAPER_TOPOLOGY_NAMES),
        "size": sizes,
        "scheduler+policy": list(SCHEDULER_AXIS),
    }
    return base, axes


def microbench_records(result: api.SweepResult) -> list[MicrobenchRecord]:
    """One :class:`MicrobenchRecord` per point of a collective sweep."""
    return [
        MicrobenchRecord(
            topology_name=point.report.payload["topology"],
            scheduler=point.report.payload["scheduler_label"],
            ctype=CollectiveType.from_name(point.report.payload["collective"]),
            size=point.report.payload["size"],
            chunks=point.report.payload["chunks"],
            comm_time=point.report.payload["comm_time"],
            utilization=point.report.avg_utilization or 0.0,
            ideal_time=point.report.payload["ideal_time"],
        )
        for point in result
    ]


def run_fig8(quick: bool = False, chunks: int = 64) -> Fig8Result:
    """Regenerate Fig. 8 over the six Table 2 topologies."""
    base, axes = fig8_sweep(quick=quick, chunks=chunks)
    return Fig8Result(records=microbench_records(api.sweep(base, axes)))
