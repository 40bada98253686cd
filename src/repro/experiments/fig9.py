"""Fig. 9 reproduction: per-dimension frontend activity rates.

A 1 GB All-Reduce on 3D-SW_SW_SW_homo.  The paper's observation: under the
baseline, dim2 and dim3 idle most of the time (dim1 is the pipeline
bottleneck); Themis+FIFO balances them but shows occasional starvation
dips; Themis+SCF keeps all three dimensions busy nearly continuously.

Activity is binned into 100 us windows, exactly as the figure caption
specifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import api
from ..analysis.tables import format_table, pct, us
from ..sim.stats import dimension_activity_rates, mean_activity_rate
from ..topology import get_topology
from ..units import GB, US
from .fig8 import SCHEDULER_AXIS

TOPOLOGY_NAME = "3D-SW_SW_SW_homo"
ACTIVITY_WINDOW = 100 * US


@dataclass
class Fig9Result:
    """Mean activity per dimension and the full windowed series."""

    makespans: dict[str, float] = field(default_factory=dict)
    mean_rates: dict[str, list[float]] = field(default_factory=dict)
    series: dict[str, list[list[tuple[float, float]]]] = field(default_factory=dict)

    def render(self) -> str:
        schedulers = list(self.mean_rates)
        ndims = len(next(iter(self.mean_rates.values())))
        rows = []
        for scheduler in schedulers:
            rates = self.mean_rates[scheduler]
            rows.append((scheduler, self.makespans[scheduler], *rates))
        headers = ["scheduler", "makespan"] + [f"dim{i + 1}" for i in range(ndims)]
        table = format_table(
            headers, rows, [str, us] + [pct] * ndims
        )
        return (
            "Fig. 9: frontend activity rate, 1GB AR on 3D-SW_SW_SW_homo "
            "(mean over 100us windows)\n" + table
        )


def run_fig9(size: float = GB, chunks: int = 64) -> Fig9Result:
    """Regenerate Fig. 9's activity-rate comparison."""
    ndims = get_topology(TOPOLOGY_NAME).ndims
    base = api.CollectiveScenario(topology=TOPOLOGY_NAME, size=size, chunks=chunks)
    result = Fig9Result()
    for point in api.sweep(base, {"scheduler+policy": list(SCHEDULER_AXIS)}):
        label = point.report.payload["scheduler_label"]
        execution = point.report.detail
        result.makespans[label] = execution.makespan
        result.mean_rates[label] = [
            mean_activity_rate(execution, dim) for dim in range(ndims)
        ]
        result.series[label] = dimension_activity_rates(
            execution, ACTIVITY_WINDOW
        )
    return result
