"""Fluid fast-path capacity study: open-loop clusters at 512-4096 jobs.

The analytical backend pays hundreds of events per 64-chunk collective
even when nothing contends, which caps the tractable cluster size near
the fairness matrix's 64 jobs.  The ``fluid`` backend collapses
stable-rate intervals into closed-form flow advancement (see
``docs/backends.md``), so this experiment asks the capacity question
directly: **how far does the job count stretch once events track rate
changes instead of chunks, and what does the collapse cost in accuracy?**

Each job count runs one open-loop Poisson arrival trace to completion
under ``backend: "fluid"``; the smallest count is re-run under
``analytical`` on the identical trace.  Two things are checked:

* the *capacity* — events per job stay flat across the sweep (the fast
  path is O(rate changes), not O(chunks x jobs));
* the *agreement* — the exact re-run's event count is the eliminated
  work (the headline ratio), and its mean JCT bounds the modeling error
  introduced by fluidizing chunk trains into single flows.

Everything is deterministic: the arrival trace is seeded and both
backends are seedless discrete-event simulations, so event counts are
machine-independent and reruns are bit-identical
(``benchmarks/bench_scaling.py`` gates the same counters in CI under
its ``fluid_scaling`` document key).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import api
from ..analysis.tables import format_table, ratio, us
from ..errors import ConfigError
from ..topology import Topology, dimension, topology_to_dict

#: Open-loop job counts in the fast-path regime (full mode).
FLUID_SCALE_JOBS: tuple[int, ...] = (512, 1024, 2048, 4096)

#: Quick-mode subset: small enough for tests and the CLI smoke, still
#: two sizes so the events-per-job flatness is observable.
QUICK_FLUID_SCALE_JOBS: tuple[int, ...] = (128, 256)

#: Chunks per collective — the paper's operating point, and the regime
#: where the exact path's per-chunk event cost dominates.
FLUID_SCALE_CHUNKS = 64


def fluid_scale_topology() -> Topology:
    """The benchmark's small 2D platform (``bench_scaling.py``): the
    sweep measures contention at scale, not topology, and sharing the
    platform keeps this study's ratios comparable to the gated
    ``fluid_scaling`` rows in ``BENCH_scaling.json``."""
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
        ],
        name="bench-4x4",
    )


def fluid_scale_spec(arrivals: int, backend: str) -> api.ClusterScenario:
    """One open-loop cluster spec at ``arrivals`` jobs under ``backend``.

    The benchmark's fluid cells run it: all-mouse mix (1 MB parameters,
    two iterations) so collectives are numerous rather than individually
    heavy, 8 concurrency slots, outcomes capped — the run measures
    scheduling/event throughput, not one giant collective.
    """
    if arrivals <= 0:
        raise ConfigError(f"need a positive job count, got {arrivals}")
    return api.ClusterScenario(
        topology=topology_to_dict(fluid_scale_topology()),
        open_loop=api.OpenLoopTrace(
            rate=20_000.0,
            duration=None,
            max_jobs=arrivals,
            seed=7,
            mix={
                "elephant_fraction": 0.0,
                "mouse_layers": 1,
                "mouse_param_mb": 1.0,
                "max_iterations": 2,
            },
        ),
        max_concurrent=8,
        outcome_cap=100,
        isolated_baselines=False,
        chunks=FLUID_SCALE_CHUNKS,
        backend=backend,
    )


@dataclass
class FluidScaleResult:
    """Per-size fluid rows plus the analytical reference at the smallest."""

    job_counts: tuple[int, ...]
    rows: dict[int, dict[str, float]] = field(default_factory=dict)
    exact_reference: dict[str, float] = field(default_factory=dict)

    def events(self, jobs: int) -> int:
        return int(self.rows[jobs]["events"])

    def events_per_job(self, jobs: int) -> float:
        return self.rows[jobs]["events"] / jobs

    def mean_jct(self, jobs: int) -> float:
        return self.rows[jobs]["mean_jct"]

    @property
    def event_ratio(self) -> float:
        """Exact-over-fluid event count at the reference size."""
        fluid_events = self.events(self.job_counts[0])
        return self.exact_reference["events"] / fluid_events

    @property
    def jct_ratio(self) -> float:
        """Fluid-over-exact mean JCT at the reference size (1.0 = exact)."""
        return (
            self.mean_jct(self.job_counts[0])
            / self.exact_reference["mean_jct"]
        )

    def events_flat(self, tolerance: float = 0.25) -> bool:
        """True iff events/job varies under ``tolerance`` across sizes."""
        per_job = [self.events_per_job(jobs) for jobs in self.job_counts]
        return max(per_job) <= min(per_job) * (1.0 + tolerance)

    def render(self) -> str:
        blocks = [
            "Fluid fast-path capacity study: open-loop arrivals on "
            f"bench-4x4 at {FLUID_SCALE_CHUNKS} chunks/collective"
        ]
        rows = [
            (
                f"{jobs}",
                self.events(jobs),
                f"{self.events_per_job(jobs):.1f}",
                self.mean_jct(jobs),
            )
            for jobs in self.job_counts
        ]
        blocks.append(
            format_table(
                ["jobs", "events", "events/job", "mean JCT"],
                rows,
                [str, str, str, us],
                indent="  ",
            )
        )
        reference = self.job_counts[0]
        blocks.append(
            f"\nexact reference at {reference} jobs: "
            f"{int(self.exact_reference['events'])} events vs "
            f"{self.events(reference)} fluid "
            f"({ratio(self.event_ratio)} fewer), "
            f"mean-JCT ratio {self.jct_ratio:.4f}"
        )
        flatness = (
            "events/job is flat across the sweep (O(rate changes))"
            if self.events_flat()
            else "WARNING: events/job grows with the job count"
        )
        blocks.append(f"conclusion: {flatness}")
        return "\n".join(blocks)


def _cell(arrivals: int, backend: str) -> dict[str, float]:
    report = api.run(fluid_scale_spec(arrivals, backend))
    payload = report.payload
    engine = payload["engine"]
    return {
        "events": float(engine["events"]),
        "peak_pending_events": float(engine["peak_pending_events"]),
        "makespan": report.makespan,
        "mean_jct": float(payload["mean_jct"]),
    }


def run_fluid_scale(
    quick: bool = True,
    job_counts: tuple[int, ...] | None = None,
) -> FluidScaleResult:
    """Run the fluid sweep plus the exact reference and compare.

    ``job_counts`` selects explicit sizes (tests pass tiny ones);
    ``quick`` swaps the 512-4096 sweep for a two-size smoke.
    """
    chosen = tuple(
        job_counts
        if job_counts is not None
        else (QUICK_FLUID_SCALE_JOBS if quick else FLUID_SCALE_JOBS)
    )
    if not chosen:
        raise ConfigError("need at least one job count")
    result = FluidScaleResult(job_counts=chosen)
    for arrivals in chosen:
        result.rows[arrivals] = _cell(arrivals, "fluid")
    result.exact_reference = _cell(chosen[0], "analytical")
    return result
