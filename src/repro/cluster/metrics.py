"""Per-job and cluster-wide metrics for multi-job simulations.

The scheduling literature's standard quantities:

* **JCT** (job completion time) — finish minus arrival, per job;
* **slowdown / rho** — JCT divided by the job's *isolated* JCT (same job,
  same platform, nobody else on the network); 1.0 means contention cost
  nothing.  This is exactly the *finish-time fairness* metric rho of
  Themis-fair (Mahajan et al.) — a fair cluster gives every job the same
  rho, so the per-job spread (max rho, Jain's index over rho) is the
  headline fairness number;
* **Jain's fairness index** — ``(sum rho)^2 / (n * sum rho^2)`` over the
  per-job rhos: 1.0 when all jobs suffer contention equally, approaching
  ``1/n`` when one job bears it all;
* **makespan** — first arrival to last finish, cluster-wide;
* **utilization** — the paper's Sec. 3 per-dimension BW utilization of the
  shared network over its communication-active window.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from ..analysis.tables import format_table, ms, pct, ratio
from ..numeric import ordered_sum
from ..sim.stats import UtilizationReport
from ..training.results import IterationBreakdown
from ..units import fmt_time


# --- aggregates over per-job values ------------------------------------------
# Each sums left to right from integer 0 (``ordered_sum``), in the order the
# values are given, so a report is bit-identical on every Python version.
def mean_of(values: Sequence[float]) -> float | None:
    """Arithmetic mean (``None`` for no values)."""
    return ordered_sum(values) / len(values) if values else None


def max_of(values: Sequence[float]) -> float | None:
    """Largest value (``None`` for no values)."""
    return max(values) if values else None


def jain_index(values: Sequence[float]) -> float | None:
    """Jain's index ``(sum x)^2 / (n * sum x^2)``: 1.0 when all values are
    equal; ``None`` for no values or an all-zero sum of squares."""
    square_sum = ordered_sum(v * v for v in values)
    if not values or square_sum <= 0:
        return None
    total = ordered_sum(values)
    return (total * total) / (len(values) * square_sum)


def _percentile(ordered: list[float], q: float) -> float | None:
    """Linear-interpolated ``q``-quantile of the sorted list ``ordered``."""
    if not ordered:
        return None
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def digest(values: Sequence[float]) -> dict:
    """Count, mean, extrema and exact p50/p95/p99 of ``values``, JSON-plain:
    every field but the count is ``None`` (never NaN) for no values."""
    ordered = sorted(values)
    return {
        "count": len(values),
        "mean": mean_of(values),
        "min": min(values) if values else None,
        "max": max_of(values),
        "p50": _percentile(ordered, 0.50),
        "p95": _percentile(ordered, 0.95),
        "p99": _percentile(ordered, 0.99),
    }


def epoch_means(
    samples: Iterable[tuple[float, float]], start: float, end: float, epochs: int
) -> tuple[tuple[float | None, ...], tuple[int, ...]]:
    """Per-epoch means and counts of ``(time, value)`` samples over
    ``[start, end]`` cut into ``epochs`` equal epochs.  A time outside the
    window counts in the nearest end epoch; an epoch without samples has
    mean ``None``."""
    length = (end - start) / epochs
    buckets: list[list[float]] = [[] for _ in range(epochs)]
    for time, value in samples:
        index = int((time - start) / length)
        buckets[max(0, min(epochs - 1, index))].append(value)
    return (
        tuple(mean_of(bucket) for bucket in buckets),
        tuple(len(bucket) for bucket in buckets),
    )


def stationary(series: Sequence[float | None], rtol: float = 0.25) -> bool | None:
    """First-half vs second-half comparison of an epoch series.

    ``True`` when the means of the two halves of the non-empty epochs agree
    within relative tolerance ``rtol``: a deliberately simple stationarity
    proxy (a drifting warm-up transient fails it; a converged run passes).
    ``None`` when fewer than four epochs carry samples, i.e. there is not
    enough signal to judge either way.
    """
    values = [v for v in series if v is not None]
    if len(values) < 4:
        return None
    half = len(values) // 2
    first = ordered_sum(values[:half]) / half
    second = ordered_sum(values[half:]) / (len(values) - half)
    scale = max(abs(first), abs(second))
    if scale <= 0:
        return True
    return abs(second - first) <= rtol * scale


@dataclass
class JobOutcome:
    """What happened to one job in a cluster run."""

    name: str
    workload_name: str
    scheduler_name: str
    arrival_time: float
    #: ``None`` when the run was truncated before this job completed.
    finish_time: float | None
    #: When the job was *admitted* (a concurrency slot became available and
    #: its loop was bound).  Equals ``arrival_time`` without admission
    #: control; ``None`` while the job still waits in the admission queue.
    admit_time: float | None = None
    iterations: list[IterationBreakdown] = field(default_factory=list)
    #: Time this job had at least one collective in flight on the network.
    comm_active_seconds: float = 0.0
    #: The job's completion time when run alone on the same platform with
    #: the same scheduler; ``None`` when the isolated baseline was skipped.
    isolated_time: float | None = None
    #: Dimension subset the job's communicators spanned (``None`` = all
    #: platform dimensions) — the placement decision made at arrival.
    placement: tuple[int, ...] | None = None
    #: False only when a truncated run cut the job before its arrival, so
    #: no placement was ever decided (``placement`` then echoes the spec's
    #: hand-declared dims).
    placed: bool = True
    #: Execution attempts (1 + retries).  Stays 1 without fault injection;
    #: 0 when the run stopped before the job was ever admitted.
    attempts: int = 1
    #: True when the job exhausted its retry budget and was abandoned
    #: (``finish_time`` is then ``None`` — a failed job never finishes).
    failed: bool = False
    #: Simulated time the retry budget ran out (``None`` unless ``failed``).
    fail_time: float | None = None
    #: Simulated seconds of progress discarded across all crashes (work
    #: since the last checkpoint, or since attempt start without one).
    lost_work: float = 0.0

    @property
    def finished(self) -> bool:
        return self.finish_time is not None

    @property
    def retries(self) -> int:
        """Retry count: attempts beyond the first."""
        return max(0, self.attempts - 1)

    @property
    def placement_label(self) -> str:
        """Compact dims label for tables (``all``, ``0+2``, or ``?``)."""
        if not self.placed:
            return "?"
        if self.placement is None:
            return "all"
        return "+".join(str(d) for d in self.placement)

    @property
    def jct(self) -> float | None:
        """Job completion time: finish minus arrival (``None`` if unfinished)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def queueing_delay(self) -> float | None:
        """Admission-queue wait: admit minus arrival (``None`` until admitted).

        Zero whenever a concurrency slot was free at arrival (and always,
        without ``max_concurrent``); positive only when admission control
        made the job wait for a departing tenant's slot.
        """
        if self.admit_time is None:
            return None
        return self.admit_time - self.arrival_time

    @property
    def slowdown(self) -> float | None:
        """JCT relative to the isolated run (``None`` if not computed)."""
        jct = self.jct
        if jct is None or self.isolated_time is None or self.isolated_time <= 0:
            return None
        return jct / self.isolated_time

    @property
    def rho(self) -> float | None:
        """Finish-time fairness rho (Themis-fair): shared JCT / isolated JCT.

        Numerically identical to :attr:`slowdown`; exposed under the
        fairness literature's name so fairness reports read naturally.
        """
        return self.slowdown

    @property
    def breakdown(self) -> IterationBreakdown:
        """Summed breakdown over the job's iterations."""
        combined = IterationBreakdown()
        for iteration in self.iterations:
            combined = combined + iteration
        return combined


@dataclass
class SteadyStateReport:
    """Window-scoped metrics of an open-loop run (warmup/measure mode).

    All per-job statistics cover only the *measured* jobs — jobs whose
    whole lifetime (arrival through finish) falls inside the measurement
    window ``[warmup_time, warmup_time + measure_time]`` — the standard
    steady-state discipline: the warm-up transient is discarded, and jobs
    straddling the window edges (arrived during warm-up, or cut off by the
    window end) are excluded rather than half-counted.

    Every distribution field is ``None`` (never NaN) when
    ``measured_jobs == 0``, so an empty window renders as a clear typed
    report instead of an exception.
    """

    warmup_time: float
    measure_time: float
    #: Arrivals / completions whose event fell inside the window (these
    #: count boundary-straddling jobs; ``measured_jobs`` does not).
    arrivals: int = 0
    completions: int = 0
    measured_jobs: int = 0
    #: Jobs whose retry budget ran out inside the window.  Failed jobs are
    #: counted here and *never* fed into the JCT/rho digests — abandoning a
    #: job must not read as a (vacuously fast) completion.
    failed_jobs: int = 0
    #: Highest simultaneous admitted-job count over the whole run (the
    #: bounded-memory headline: must stay far below total arrivals).
    peak_live_jobs: int = 0
    #: Time-average of the admitted-job count over the window.
    mean_live_jobs: float = 0.0
    #: ``mean_live_jobs / max_concurrent`` — measured slot occupancy (the
    #: empirical offered-load check); ``None`` without admission control.
    slot_utilization: float | None = None
    #: Digests over measured jobs (see :func:`digest`), read at the end of
    #: the run from its per-job records, in departure order.
    queueing_delay: dict = field(default_factory=dict)
    jct: dict = field(default_factory=dict)
    rho: dict = field(default_factory=dict)
    #: Jain's index over measured-job rhos (``None`` without baselines).
    jain_rho: float | None = None
    #: Per-epoch mean of ``epoch_metric`` across the window (``None`` for
    #: epochs with no measured completions) — the convergence series.
    epoch_series: tuple[float | None, ...] = ()
    epoch_counts: tuple[int, ...] = ()
    #: ``"rho"`` with isolated baselines, ``"jct"`` without.
    epoch_metric: str = "rho"
    #: First-half vs second-half agreement of ``epoch_series``; ``None``
    #: when too few epochs carry samples to judge.
    stationary: bool | None = None

    @property
    def window_end(self) -> float:
        return self.warmup_time + self.measure_time

    def to_dict(self) -> dict:
        """JSON-plain form (embedded in ``RunReport.payload``)."""
        return {
            "warmup_time": self.warmup_time,
            "measure_time": self.measure_time,
            "arrivals": self.arrivals,
            "completions": self.completions,
            "measured_jobs": self.measured_jobs,
            "failed_jobs": self.failed_jobs,
            "peak_live_jobs": self.peak_live_jobs,
            "mean_live_jobs": self.mean_live_jobs,
            "slot_utilization": self.slot_utilization,
            "queueing_delay": dict(self.queueing_delay),
            "jct": dict(self.jct),
            "rho": dict(self.rho),
            "jain_rho": self.jain_rho,
            "epoch_series": list(self.epoch_series),
            "epoch_counts": list(self.epoch_counts),
            "epoch_metric": self.epoch_metric,
            "stationary": self.stationary,
        }

    def describe(self) -> str:
        """Human-readable steady-state block for cluster reports."""
        lines = [
            f"  steady state: window [{ms(self.warmup_time)}, "
            f"{ms(self.window_end)}], {self.arrivals} arrival(s), "
            f"{self.completions} completion(s), {self.measured_jobs} measured"
            + (
                f", {self.failed_jobs} failed"
                if self.failed_jobs
                else ""
            ),
            f"  live jobs: peak {self.peak_live_jobs}, "
            f"mean {self.mean_live_jobs:.2f}"
            + (
                f", slot occupancy {pct(self.slot_utilization)}"
                if self.slot_utilization is not None
                else ""
            ),
        ]
        if self.measured_jobs == 0:
            lines.append(
                "  no job's lifetime fell inside the measurement window; "
                "distribution metrics are undefined (not zero)"
            )
            return "\n".join(lines)

        def line(label: str, stats: dict) -> str:
            mean = stats.get("mean")
            p50, p95, p99 = (stats.get(k) for k in ("p50", "p95", "p99"))
            if mean is None:
                return f"  {label}: n/a"
            if label == "rho":
                return (
                    f"  {label}: mean {mean:.2f}, p50 {p50:.2f}, "
                    f"p95 {p95:.2f}, p99 {p99:.2f}"
                )
            return (
                f"  {label}: mean {ms(mean)}, p50 {ms(p50)}, "
                f"p95 {ms(p95)}, p99 {ms(p99)}"
            )

        lines.append(line("queueing delay", self.queueing_delay))
        lines.append(line("measured JCT", self.jct))
        if self.rho.get("mean") is not None:
            lines.append(line("rho", self.rho))
            if self.jain_rho is not None:
                lines.append(f"  Jain index over measured rho: {self.jain_rho:.3f}")
        series = ", ".join(
            "-" if v is None else f"{v:.2f}" for v in self.epoch_series
        )
        verdict = (
            "inconclusive" if self.stationary is None
            else ("stationary" if self.stationary else "NOT stationary")
        )
        lines.append(
            f"  per-epoch {self.epoch_metric}: [{series}] -> {verdict}"
        )
        return "\n".join(lines)


@dataclass
class ClusterReport:
    """Results of one multi-job cluster simulation."""

    topology_name: str
    jobs: list[JobOutcome]
    #: Shared-network BW utilization over the comm-active window (``None``
    #: when no communication happened).
    utilization: UtilizationReport | None = None
    #: Cluster-wide communication-active time (any tenant in flight).
    comm_active_seconds: float = 0.0
    #: ``describe()`` of the fairness policy in force (``None`` = default
    #: first-come sharing with no policy object attached).
    fairness_name: str | None = None
    #: ``describe()`` of the placement policy in force (``None`` = default
    #: hand placement with no policy object attached).
    placement_name: str | None = None
    #: Per-dimension busy seconds of the shared network (wire-occupancy
    #: time), the basis of the load-imbalance metric; empty when no
    #: communication happened.
    dim_load: tuple[float, ...] = ()
    #: Batch preemptions across all dimensions (non-zero only under the
    #: priority-preemption fairness policy).
    preemption_count: int = 0
    #: True when the run hit its event budget before every job finished;
    #: metrics then cover the *finished* jobs only and the makespan ends at
    #: ``truncated_at``, so a partial run cannot masquerade as a complete one.
    truncated: bool = False
    #: Simulated time at which the event budget cut the run short.
    truncated_at: float | None = None
    #: Measurement-window end at which a warmup/measure run deliberately
    #: stopped (unfinished jobs are then expected, not a deadlock).
    stopped_at: float | None = None
    #: Highest simultaneous admitted-job count (1 <= peak <= job count;
    #: bounded by ``max_concurrent`` under admission control).
    peak_live_jobs: int = 0
    #: Total jobs in the trace, including jobs an outcome cap slimmed or a
    #: measurement window cut before arrival; ``len(jobs)`` elsewhere.
    total_jobs: int = 0
    #: Window-scoped steady-state metrics (open-loop measurement mode only).
    steady_state: SteadyStateReport | None = None

    def job(self, name: str) -> JobOutcome:
        for outcome in self.jobs:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no job named {name!r}")

    @property
    def finished_jobs(self) -> list[JobOutcome]:
        """Jobs that completed (all of them unless ``truncated``)."""
        return [job for job in self.jobs if job.finished]

    @property
    def unfinished_jobs(self) -> list[JobOutcome]:
        """Jobs still running when the run stopped.  Failed jobs are
        *terminal*, not unfinished — they appear in ``failed_jobs`` only.
        """
        return [job for job in self.jobs if not job.finished and not job.failed]

    @property
    def failed_jobs(self) -> list[JobOutcome]:
        """Jobs abandoned after exhausting their retry budget."""
        return [job for job in self.jobs if job.failed]

    @property
    def total_retries(self) -> int:
        """Crash-triggered restarts summed over all jobs (0 without faults)."""
        return ordered_sum(job.retries for job in self.jobs)

    @property
    def lost_work_seconds(self) -> float:
        """Simulated seconds of progress discarded to crashes, cluster-wide."""
        return ordered_sum(job.lost_work for job in self.jobs)

    @property
    def completion_rate(self) -> float | None:
        """Finished fraction of terminal jobs — the graceful-degradation
        headline under fault injection (1.0 when every job that ended,
        ended by finishing).  ``None`` when no job reached a terminal state.
        """
        terminal = len(self.finished_jobs) + len(self.failed_jobs)
        if terminal == 0:
            return None
        return len(self.finished_jobs) / terminal

    @property
    def makespan(self) -> float:
        """First arrival to last finish (to the cut, for truncated or
        window-stopped runs).  0.0 when nothing arrived or finished and no
        cut time is known — never a bare ``max()`` on an empty sequence,
        so a measurement window in which zero jobs complete still reports.
        """
        if not self.jobs:
            return 0.0
        start = min(job.arrival_time for job in self.jobs)
        ends = [
            job.finish_time
            for job in self.finished_jobs
            if job.finish_time is not None
        ]
        if self.truncated_at is not None:
            ends.append(self.truncated_at)
        if self.stopped_at is not None:
            ends.append(self.stopped_at)
        if not ends:
            return 0.0
        return max(max(ends) - start, 0.0)

    def _jcts(self) -> list[float]:
        return [job.jct for job in self.finished_jobs if job.jct is not None]

    @property
    def mean_jct(self) -> float | None:
        """Mean JCT over finished jobs (``None`` if nothing finished)."""
        return mean_of(self._jcts())

    @property
    def max_jct(self) -> float | None:
        return max_of(self._jcts())

    def _slowdowns(self) -> list[float]:
        return [job.slowdown for job in self.jobs if job.slowdown is not None]

    @property
    def mean_slowdown(self) -> float | None:
        return mean_of(self._slowdowns())

    @property
    def max_slowdown(self) -> float | None:
        return max_of(self._slowdowns())

    @property
    def mean_rho(self) -> float | None:
        """Mean finish-time-fairness rho (alias of :attr:`mean_slowdown`)."""
        return self.mean_slowdown

    @property
    def max_rho(self) -> float | None:
        """Worst per-job rho — the fairness headline to minimize."""
        return self.max_slowdown

    @property
    def load_imbalance(self) -> float | None:
        """Max-to-mean ratio of per-dimension busy seconds.

        1.0 means every dimension carried the same wire time; D (the
        dimension count) means one dimension carried everything.  ``None``
        when no communication happened.  Automatic placement should pull
        this toward 1.0 while also improving JCT/makespan — spreading load
        is the mechanism, not the goal.
        """
        mean = mean_of(self.dim_load)
        if mean is None or mean <= 0:
            return None
        return max(self.dim_load) / mean

    @property
    def jains_fairness_index(self) -> float | None:
        """Jain's index over the per-job rhos (1.0 = perfectly fair).

        ``None`` when isolated baselines were not computed, so no rho
        exists to compare.
        """
        return jain_index(self._slowdowns())

    #: Per-job table rows shown by ``describe`` before eliding (open-loop
    #: runs have thousands of jobs; the table is a sample, the
    #: ``steady_state`` block, read from every job's record, the source of truth).
    _DESCRIBE_ROW_CAP = 20

    def describe(self) -> str:
        """Human-readable per-job table plus cluster-wide summary."""
        rows = []
        ordered = sorted(self.jobs, key=lambda j: (j.arrival_time, j.name))
        elided = max(0, len(ordered) - self._DESCRIBE_ROW_CAP)
        if elided:
            ordered = ordered[: self._DESCRIBE_ROW_CAP]
        for job in ordered:
            rows.append(
                (
                    job.name,
                    job.workload_name,
                    job.scheduler_name,
                    job.placement_label,
                    job.arrival_time,
                    job.jct if job.jct is not None else float("nan"),
                    job.isolated_time
                    if job.isolated_time is not None
                    else float("nan"),
                    job.slowdown if job.slowdown is not None else float("nan"),
                )
            )
        total = self.total_jobs or len(self.jobs)
        header = f"cluster on {self.topology_name}: {total} job(s)"
        if self.fairness_name is not None:
            header += f", fairness: {self.fairness_name}"
        if self.placement_name is not None:
            header += f", placement: {self.placement_name}"
        if self.truncated:
            header += (
                f" [TRUNCATED at {fmt_time(self.truncated_at or 0.0)}: "
                f"{len(self.unfinished_jobs)} job(s) still running]"
            )
        elif self.stopped_at is not None:
            header += (
                f" [measurement window closed at {fmt_time(self.stopped_at)}: "
                f"{len(self.unfinished_jobs)} job(s) still running]"
            )
        lines = [
            header,
            format_table(
                ["job", "workload", "sched", "dims", "arrival", "JCT",
                 "isolated", "rho"],
                rows,
                [str, str, str, str, ms, ms, ms, ratio],
                indent="  ",
            ),
        ]
        if elided:
            lines.append(f"  ... {elided} more job row(s) elided")
        lines += [
            f"  makespan {fmt_time(self.makespan)}, "
            f"mean JCT "
            f"{fmt_time(self.mean_jct) if self.mean_jct is not None else 'n/a'}, "
            f"comm-active {fmt_time(self.comm_active_seconds)}",
        ]
        failed = self.failed_jobs
        if failed or self.total_retries:
            lines.append(
                f"  faults: {len(failed)} job(s) failed, "
                f"{self.total_retries} retry(ies), "
                f"{fmt_time(self.lost_work_seconds)} lost work"
                + (
                    f", completion rate {pct(self.completion_rate)}"
                    if self.completion_rate is not None
                    else ""
                )
            )
        if self.mean_rho is not None:
            lines.append(
                f"  slowdown vs isolated (finish-time fairness rho): "
                f"mean {self.mean_rho:.2f}, max {self.max_rho:.2f}, "
                f"Jain index {self.jains_fairness_index:.3f}"
            )
        if self.preemption_count:
            lines.append(f"  preemptions: {self.preemption_count}")
        if self.load_imbalance is not None:
            per_dim = ", ".join(
                f"dim{i + 1}={fmt_time(t)}" for i, t in enumerate(self.dim_load)
            )
            lines.append(
                f"  dimension load (busy time): {per_dim}; "
                f"imbalance (max/mean) {self.load_imbalance:.2f}"
            )
        if self.utilization is not None:
            per_dim = ", ".join(
                f"dim{i + 1}={pct(u)}" for i, u in enumerate(self.utilization.per_dim)
            )
            lines.append(
                f"  BW utilization (comm-active window): "
                f"avg {pct(self.utilization.average)} [{per_dim}]"
            )
        if self.steady_state is not None:
            lines.append(self.steady_state.describe())
        return "\n".join(lines)
