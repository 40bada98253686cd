"""Uniform run reports: one result type for every simulation mode.

Every ``repro.api.run`` call returns a :class:`RunReport` with the same
core — simulated makespan, per-dimension BW utilization, engine event
count, host wall time, a ``truncated`` flag — plus a mode-specific
``payload`` of plain JSON-able values and (for in-process consumers) the
rich ``detail`` object of the underlying subsystem
(:class:`~repro.training.results.TrainingReport`,
:class:`~repro.cluster.ClusterReport`, ...).  ``detail`` is deliberately
excluded from serialization: ``RunReport.from_dict(report.to_dict())``
reconstructs everything a downstream tool needs to plot or compare runs.

:class:`SweepResult` is the grid-runner counterpart: an ordered list of
:class:`SweepPoint` (axis overrides + report), with lookup helpers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import Any

from ..analysis.tables import format_table
from ..errors import SpecError
from ..typed import read
from ..units import fmt_time


@dataclass
class RunReport:
    """What one scenario run produced.

    Attributes
    ----------
    mode:
        The scenario mode that ran (``collective`` / ``training`` /
        ``cluster`` / ``provisioning``).
    spec:
        The spec that produced this report, in ``to_dict`` form.
    makespan:
        Simulated seconds from scenario start to last completion (0.0 for
        the analytic provisioning mode).
    wall_time:
        Host seconds the run took.
    events:
        Discrete events the engine fired (0 for analytic modes).
    avg_utilization / per_dim_utilization:
        The paper's Sec. 3 BW-utilization metric over the comm-active
        window; ``None`` where no network traffic was simulated.
    truncated:
        True when an event budget cut the run short — the metrics then
        describe a *partial* simulation.
    payload:
        Mode-specific plain values (JSON-able).
    detail:
        The underlying subsystem's rich report object; in-memory only.
    """

    mode: str
    spec: dict
    makespan: float
    wall_time: float = 0.0
    events: int = 0
    avg_utilization: "float | None" = None
    per_dim_utilization: "tuple[float, ...] | None" = None
    truncated: bool = False
    payload: dict = field(default_factory=dict)
    detail: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "spec": self.spec,
            "makespan": self.makespan,
            "wall_time": self.wall_time,
            "events": self.events,
            "avg_utilization": self.avg_utilization,
            "per_dim_utilization": (
                list(self.per_dim_utilization)
                if self.per_dim_utilization is not None
                else None
            ),
            "truncated": self.truncated,
            "payload": self.payload,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Any) -> "RunReport":
        """The report a :meth:`to_dict` document describes, each value read
        by its field's type (:mod:`repro.typed`)."""
        return read(cls, data, "report", SpecError)

    def describe(self) -> str:
        """Human-readable summary; the rich detail's own renderer when present."""
        lines = [
            f"[{self.mode}] makespan {fmt_time(self.makespan)}, "
            f"{self.events} events, wall {self.wall_time:.3f}s"
            + (" [TRUNCATED]" if self.truncated else "")
        ]
        if self.avg_utilization is not None:
            per_dim = ""
            if self.per_dim_utilization:
                per_dim = " [" + ", ".join(
                    f"dim{i + 1}={u:.1%}"
                    for i, u in enumerate(self.per_dim_utilization)
                ) + "]"
            lines.append(f"  avg BW utilization {self.avg_utilization:.1%}{per_dim}")
        if self.detail is not None and hasattr(self.detail, "describe"):
            lines.append(self.detail.describe())
        return "\n".join(lines)


@dataclass
class SweepPoint:
    """One grid cell: which axis values produced which report."""

    overrides: dict[str, Any]
    report: RunReport

    def matches(self, **criteria: Any) -> bool:
        return all(self.overrides.get(key) == value for key, value in criteria.items())


@dataclass
class SweepResult:
    """All grid cells of one sweep, in deterministic grid order."""

    base: dict
    axes: list[tuple[tuple[str, ...], list[Any]]]
    points: list[SweepPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    @property
    def reports(self) -> list[RunReport]:
        return [point.report for point in self.points]

    def select(self, **criteria: Any) -> list[SweepPoint]:
        """Points whose overrides match every ``field=value`` criterion."""
        return [point for point in self.points if point.matches(**criteria)]

    def find(self, **criteria: Any) -> SweepPoint:
        """The unique point matching the criteria (raises otherwise)."""
        matches = self.select(**criteria)
        if len(matches) != 1:
            raise KeyError(
                f"criteria {criteria!r} matched {len(matches)} sweep points"
            )
        return matches[0]

    @property
    def truncated_points(self) -> list[SweepPoint]:
        """Grid cells whose run hit an event budget (partial results)."""
        return [point for point in self.points if point.report.truncated]

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "axes": [
                {"fields": list(fields), "values": values}
                for fields, values in self.axes
            ],
            "points": [
                {"overrides": point.overrides, "report": point.report.to_dict()}
                for point in self.points
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Axis values + headline numbers per grid cell, as a table."""
        axis_fields = [f for fields, _ in self.axes for f in fields]
        rows = []
        for point in self.points:
            row = [str(point.overrides.get(f)) for f in axis_fields]
            report = point.report
            row.append(
                fmt_time(report.makespan)
                + (" (trunc)" if report.truncated else "")
            )
            row.append(
                f"{report.avg_utilization:.1%}"
                if report.avg_utilization is not None
                else "-"
            )
            rows.append(tuple(row))
        headers = axis_fields + ["makespan", "avg util"]
        table = format_table(headers, rows, [str] * len(headers))
        summary = f"{len(self.points)} run(s)"
        truncated = len(self.truncated_points)
        if truncated:
            summary += f", {truncated} truncated by event budget"
        return f"sweep over {', '.join(axis_fields)}: {summary}\n{table}"
