"""Fig. 10 reproduction: BW utilization vs chunks-per-collective.

A 100 MB All-Reduce on 3D-SW_SW_SW_hetero and 4D-Ring_FC_Ring_SW with
chunk counts swept from 4 to 512.  Paper observations:

* the baseline is insensitive to chunk count (dim1 is first and bottleneck
  regardless of granularity);
* Themis improves steeply with more chunks (finer load-balancing
  granularity), from ~48.6% (SCF) at 4 chunks to ~91.2% at 512 on average
  over the two topologies;
* Themis+SCF is stable from 8 chunks up, while Themis+FIFO shows
  starvation dips.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import api
from ..analysis.sweep import MicrobenchRecord
from ..analysis.tables import format_table, pct
from ..units import MB
from .fig8 import SCHEDULER_AXIS, microbench_records

DEFAULT_CHUNK_COUNTS: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256, 512)
QUICK_CHUNK_COUNTS: tuple[int, ...] = (4, 64, 512)
TOPOLOGY_NAMES: tuple[str, ...] = ("3D-SW_SW_SW_hetero", "4D-Ring_FC_Ring_SW")


@dataclass
class Fig10Result:
    """Utilization records keyed by (topology, chunk count, scheduler)."""

    records: list[MicrobenchRecord] = field(default_factory=list)

    def utilization(self, topology: str, chunks: int, scheduler: str) -> float:
        for record in self.records:
            if (
                record.topology_name == topology
                and record.chunks == chunks
                and record.scheduler == scheduler
            ):
                return record.utilization
        raise KeyError((topology, chunks, scheduler))

    def mean_utilization(self, scheduler: str, chunks: int) -> float:
        values = [
            r.utilization
            for r in self.records
            if r.scheduler == scheduler and r.chunks == chunks
        ]
        return sum(values) / len(values)

    def render(self) -> str:
        chunk_counts = sorted({r.chunks for r in self.records})
        blocks = []
        for topo in TOPOLOGY_NAMES:
            rows = []
            for chunks in chunk_counts:
                rows.append(
                    (
                        chunks,
                        self.utilization(topo, chunks, "Baseline"),
                        self.utilization(topo, chunks, "Themis+FIFO"),
                        self.utilization(topo, chunks, "Themis+SCF"),
                    )
                )
            blocks.append(
                f"{topo}:\n"
                + format_table(
                    ["chunks", "Baseline", "Themis+FIFO", "Themis+SCF"],
                    rows,
                    [str, pct, pct, pct],
                    indent="  ",
                )
            )
        return (
            "Fig. 10: BW utilization vs chunks per collective (100MB AR)\n"
            + "\n".join(blocks)
        )


def run_fig10(quick: bool = False, size: float = 100 * MB) -> Fig10Result:
    """Regenerate Fig. 10's chunk-granularity sensitivity sweep."""
    chunk_counts = QUICK_CHUNK_COUNTS if quick else DEFAULT_CHUNK_COUNTS
    axes = {
        "topology": list(TOPOLOGY_NAMES),
        "chunks": list(chunk_counts),
        "scheduler+policy": list(SCHEDULER_AXIS),
    }
    result = api.sweep(api.CollectiveScenario(size=size), axes)
    return Fig10Result(records=microbench_records(result))
