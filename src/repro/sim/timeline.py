"""Execution timeline records and ASCII rendering (paper Fig. 5 style).

Every chunk operation the executor runs leaves an :class:`OpRecord`.  The
records double as the data source for the activity-rate analysis (Fig. 9)
and for a terminal Gantt chart that reproduces the look of the paper's
Fig. 5 pipeline diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..collectives.types import PhaseOp
from ..numeric import ordered_sum
from ..units import fmt_size, fmt_time


class OpRecord(NamedTuple):
    """One completed chunk operation on one dimension.

    A named tuple, so that building one of the many a recorded run keeps is
    cheap: it is immutable, and ``_replace`` / ``_asdict`` stand in for
    :func:`dataclasses.replace` / :func:`dataclasses.asdict`.
    """

    collective_seq: int
    chunk_id: int
    stage_index: int
    dim_index: int
    op: PhaseOp
    stage_size: float
    bytes_sent: float
    transfer_time: float
    fixed_time: float
    ready_time: float
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def queueing_delay(self) -> float:
        """Time the op waited ready in its dimension's queue."""
        return self.start_time - self.ready_time

    def label(self) -> str:
        """Fig. 5 style label, e.g. ``RS C2.1``."""
        return f"{self.op.value} C{self.chunk_id + 1}.{self.stage_index + 1}"


@dataclass(frozen=True)
class Interval:
    """A half-open time interval ``[start, end)``."""

    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start


def merge_intervals(intervals: list[Interval]) -> list[Interval]:
    """Union of possibly-overlapping intervals, sorted and coalesced."""
    if not intervals:
        return []
    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    merged = [ordered[0]]
    for interval in ordered[1:]:
        last = merged[-1]
        if interval.start <= last.end:
            if interval.end > last.end:
                merged[-1] = Interval(last.start, interval.end)
        else:
            merged.append(interval)
    return merged


def total_length(intervals: list[Interval]) -> float:
    """Total covered time of a set of (possibly overlapping) intervals."""
    return ordered_sum(iv.length for iv in merge_intervals(intervals))


def render_gantt(
    records: list[OpRecord],
    ndims: int,
    width: int = 100,
    show_sizes: bool = False,
) -> str:
    """Render per-dimension op timelines as ASCII (Fig. 5 reproduction).

    Each dimension gets one row; ops are drawn as ``[label]`` boxes scaled to
    their duration; idle gaps show as dots.  Purely cosmetic but invaluable
    for eyeballing pipeline balance in examples and bench output.
    """
    if not records:
        return "(empty timeline)"
    t0 = min(r.start_time for r in records)
    t1 = max(r.end_time for r in records)
    span = max(t1 - t0, 1e-30)
    scale = width / span

    lines: list[str] = [
        f"timeline: {fmt_time(span)} total, 1 col = {fmt_time(span / width)}"
    ]
    for dim in range(ndims):
        row = ["."] * width
        dim_records = sorted(
            (r for r in records if r.dim_index == dim), key=lambda r: r.start_time
        )
        for record in dim_records:
            begin = int((record.start_time - t0) * scale)
            end = max(begin + 1, int((record.end_time - t0) * scale))
            end = min(end, width)
            text = record.label()
            if show_sizes:
                text += f" {fmt_size(record.stage_size)}"
            cell = list(f"[{text}]"[: end - begin].ljust(end - begin, "="))
            if cell:
                cell[-1] = "]" if end - begin > 1 else cell[-1]
            row[begin:end] = cell
        lines.append(f"dim{dim + 1}: {''.join(row)}")
    return "\n".join(lines)
