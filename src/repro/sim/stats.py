"""Utilization and activity statistics (paper Sec. 3 definition, Fig. 9).

*Average BW utilization* is the weighted average of per-dimension BW
utilization with the weights being each dimension's share of the total BW
budget, measured only over the time window during which communication is
pending ("excluding the times when there is no pending communication
operation").

A dimension's BW utilization over a window ``T`` is the fraction of ``T``
it spends actually moving bytes at full rate: ``transfer_seconds / T``
(the fixed per-step latencies and idle gaps are the non-utilized part).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..numeric import ordered_sum
from ..topology import Topology
from .network import ExecutionResult
from .timeline import Interval


@dataclass(frozen=True)
class UtilizationReport:
    """Per-dimension and weighted-average BW utilization over a window."""

    window_seconds: float
    per_dim: tuple[float, ...]
    average: float

    def describe(self, topology: Topology) -> str:
        parts = [
            f"dim{i + 1}({topology.dims[i].bandwidth_gbps:.0f}Gb/s)={u * 100:.1f}%"
            for i, u in enumerate(self.per_dim)
        ]
        return f"avg={self.average * 100:.2f}% [{', '.join(parts)}]"


def bw_utilization(
    result: ExecutionResult, window: float | None = None
) -> UtilizationReport:
    """Compute the paper's average BW utilization for a finished simulation.

    ``window`` defaults to the communication-active time (union of intervals
    with at least one pending collective), which equals the makespan for a
    single collective issued at t=0.
    """
    topology = result.topology
    active = window if window is not None else result.comm_active_seconds
    if active <= 0:
        raise ValueError("utilization undefined over an empty window")
    per_dim = tuple(
        min(1.0, result.dim_transfer_seconds[i] / active)
        for i in range(topology.ndims)
    )
    weights = [topology.bw_share(i) for i in range(topology.ndims)]
    average = ordered_sum(w * u for w, u in zip(weights, per_dim))
    return UtilizationReport(window_seconds=active, per_dim=per_dim, average=average)


def activity_rate_series(
    intervals: list[Interval],
    start: float,
    end: float,
    window: float,
) -> list[tuple[float, float]]:
    """Fraction of each ``window``-long bucket covered by activity intervals.

    Reproduces Fig. 9's *frontend activity rate*: "the percentage of times
    each dimension has activity during a period of 100 us".  Returns
    ``[(bucket_start_time, rate), ...]``.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if end <= start:
        return []
    series: list[tuple[float, float]] = []
    bucket_start = start
    while bucket_start < end:
        bucket_end = min(bucket_start + window, end)
        covered = 0.0
        for interval in intervals:
            lo = max(interval.start, bucket_start)
            hi = min(interval.end, bucket_end)
            if hi > lo:
                covered += hi - lo
        series.append((bucket_start, covered / (bucket_end - bucket_start)))
        bucket_start += window
    return series


def dimension_activity_rates(
    result: ExecutionResult, window: float
) -> list[list[tuple[float, float]]]:
    """Per-dimension activity-rate series over the whole run (Fig. 9)."""
    start = result.start_time
    end = result.completion_time
    return [
        activity_rate_series(result.dim_activity[i], start, end, window)
        for i in range(result.topology.ndims)
    ]


def mean_activity_rate(result: ExecutionResult, dim_index: int) -> float:
    """Overall fraction of the makespan a dimension had work available."""
    span = result.makespan
    if span <= 0:
        return 0.0
    covered = ordered_sum(iv.length for iv in result.dim_activity[dim_index])
    return covered / span
