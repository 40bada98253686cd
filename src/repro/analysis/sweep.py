"""Records and summaries shared by the Fig. 8-11 microbenchmark experiments.

The experiments run their grids through :func:`repro.api.sweep`; each
point becomes a :class:`MicrobenchRecord` (communication time and average
BW utilization), and speedups across topologies and sizes are averaged
with :func:`geometric_mean`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.types import CollectiveType


@dataclass(frozen=True)
class MicrobenchRecord:
    """One simulated collective's headline numbers."""

    topology_name: str
    scheduler: str
    ctype: CollectiveType
    size: float
    chunks: int
    comm_time: float
    utilization: float
    ideal_time: float

    @property
    def speedup_potential(self) -> float:
        """How far from the 100%-utilization Ideal this run landed."""
        return self.comm_time / self.ideal_time


def geometric_mean(values: list[float]) -> float:
    """Geomean used for "average speedup across topologies/sizes" claims."""
    if not values:
        raise ValueError("geometric mean of no values")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean needs positive values, got {value}")
        product *= value
    return product ** (1.0 / len(values))
