"""The benchmark's three seeded workloads.

Each workload is built from the benchmark seed and generates its own
inputs.  The runner drives it in four steps:

* ``setup()`` builds and validates everything the timed call needs
  (timed as set-up);
* ``run(prepared)`` is the timed call into the program's public API;
* ``check(prepared, result)`` checks the outputs and extracts the
  deterministic simulated values (untimed);
* ``reference()`` runs, once per invocation and untimed, the standalone
  Baseline-vs-Themis comparisons that some ``sim_*`` metrics need.

``sim_metrics(observed, reference)`` then gives the five ``sim_*`` metrics.
See ``README.md`` for each metric's definition per workload.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "benchmarks", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import bench_scaling  # noqa: E402
from repro import api  # noqa: E402
from repro.cluster import (  # noqa: E402
    ClusterConfig,
    ClusterSimulator,
    JobSpec,
    isolated_jct,
)
from repro.errors import ReproError  # noqa: E402
from repro.experiments.fig8 import SCHEDULER_AXIS  # noqa: E402
from repro.experiments.fig12 import (  # noqa: E402
    CONFIG_LABELS,
    fig12_training_config,
    fig12_workloads,
)
from repro.experiments.headline import PAPER_HEADLINES  # noqa: E402
from repro.topology import (  # noqa: E402
    PAPER_TOPOLOGY_NAMES,
    get_topology,
    topology_to_dict,
)
from repro.training import TrainingConfig  # noqa: E402
from repro.training.iteration import TrainingSimulator  # noqa: E402
from repro.units import GB, MB  # noqa: E402

#: The seed whose cluster inputs equal ``bench_scaling.py``'s rows.
DEFAULT_SEED = 0
SIM_METRICS = (
    "sim_ar_speedup",
    "sim_bw_util",
    "sim_iter_speedup",
    "sim_mean_jct_s",
    "sim_max_rho",
)
#: Relative tolerance of the cross-check against ``BENCH_scaling.json``.
BASELINE_RTOL = 1e-9


@dataclass
class Outcome:
    """Checked result of one timed call."""

    observed: dict[str, float]
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def attempt(call: Callable[..., Any], *args: Any) -> Any:
    """``call(*args)``, or the library error it raised (a failed operation)."""
    try:
        return call(*args)
    except ReproError as error:
        return error


class Workload:
    """Defaults shared by the workloads (see the module docstring)."""

    name = ""
    #: A remark printed under the paper comparison.
    note = ""

    def reference(self) -> dict[str, float]:
        return {}

    def sim_metrics(
        self, observed: dict[str, float], reference: dict[str, float]
    ) -> dict[str, float]:
        merged = {**observed, **reference}
        return {name: merged[name] for name in SIM_METRICS}

    def paper_values(
        self, observed: dict[str, float]
    ) -> list[tuple[str, float, float]]:
        """``(label, measured, paper)`` rows for the printed comparison."""
        return []


def committed_mean_jct(jobs: int, *, policy: str = "", backend: str = "") -> float:
    """Mean JCT of one row of the committed ``BENCH_scaling.json``."""
    document = json.loads((ROOT / "BENCH_scaling.json").read_text())
    if policy:
        for cell in document["results"]:
            if cell["jobs"] == jobs and cell["policy"] == policy:
                return cell["optimized"]["mean_jct"]
    for row in document["fluid_scaling"]["rows"]:
        if row["jobs"] == jobs and row["backend"] == backend:
            return row["mean_jct"]
    raise KeyError(f"BENCH_scaling.json has no {jobs}-job {policy or backend} row")


def allreduce_speedup(topology: Any, sizes: list[float], chunks: int) -> float:
    """Geomean Baseline / Themis+SCF single All-Reduce time over ``sizes``."""
    ratios = []
    for size in sizes:
        times = {
            scheduler: api.run(
                api.CollectiveScenario(
                    topology=topology_to_dict(topology),
                    size=size,
                    chunks=chunks,
                    scheduler=scheduler,
                    policy=policy,
                )
            ).payload["comm_time"]
            for scheduler, policy in (("baseline", "FIFO"), ("themis", "SCF"))
        }
        ratios.append(times["baseline"] / times["themis"])
    return statistics.geometric_mean(ratios)


def iteration_speedup(topology: Any, workloads: list, config: ClusterConfig) -> float:
    """Mean solo one-iteration JCT ratio Baseline / Themis over ``workloads``."""
    return statistics.fmean(
        isolated_jct(topology, JobSpec("solo", workload, scheduler="baseline"), config)
        / isolated_jct(topology, JobSpec("solo", workload), config)
        for workload in workloads
    )


def job_class(spec: JobSpec) -> str:
    """Jobs with one workload and iteration count share a solo baseline."""
    return f"{spec.workload_name}x{spec.iterations}"


def cluster_checks(outcome: Outcome, report: Any, jobs: int) -> None:
    """Every job finished and the run was not truncated."""
    missing = jobs - len(report.finished_jobs)
    if report.truncated:
        outcome.fail(missing, "cluster run truncated")
    elif missing:
        outcome.fail(missing, f"{missing} job(s) did not finish")


def cross_check(outcome: Outcome, measured: float, committed: float) -> None:
    """The default seed must reproduce the committed ``BENCH_scaling.json``."""
    if not math.isclose(measured, committed, rel_tol=BASELINE_RTOL):
        outcome.fail(
            1, f"mean JCT {measured!r} != BENCH_scaling.json value {committed!r}"
        )


# --- paper_headline -----------------------------------------------------------
def train(dnn: Any, topology: Any, label: str, config: TrainingConfig) -> Any:
    """One Fig. 12 cell: ``label`` is Baseline, Themis+SCF or Ideal."""
    return TrainingSimulator(
        dnn,
        topology,
        scheduler="baseline" if label == "Baseline" else "themis",
        config=config,
        ideal_network=label == "Ideal",
    ).run()


def fig8_sizes(seed: int) -> dict[str, tuple[float, ...]]:
    """All-Reduce sizes per Table 2 topology, drawn by ``seed``.

    The paper's 100 MB - 1 GB range is cut into four equal log-width bands
    (like Fig. 8's 100/250/500/1000 MB grid); each topology draws one size
    log-uniformly in every band, rounded to whole MB.  Stratifying keeps the
    seed-to-seed spread of the averaged ``sim_*`` metrics small.
    """
    rng = random.Random(seed)
    low, high = math.log(100 * MB), math.log(GB)
    edges = [low + (high - low) * i / 4 for i in range(5)]
    return {
        name: tuple(
            round(math.exp(rng.uniform(lo, hi)) / MB) * MB
            for lo, hi in zip(edges, edges[1:])
        )
        for name in PAPER_TOPOLOGY_NAMES
    }


class PaperHeadline(Workload):
    """The abstract's experiments: Fig. 8/11 sweep and Fig. 12 quick grid."""

    name = "paper_headline"
    note = "Fig. 12 grid in quick mode: 1 iteration, Transformer-1T at 8 layers"
    chunks = 64

    def __init__(self, seed: int) -> None:
        self.sizes = fig8_sizes(seed)

    def inputs(self) -> Any:
        return self.sizes

    def setup(self) -> tuple[list, list, TrainingConfig]:
        specs = [
            api.CollectiveScenario(
                topology=topology,
                size=size,
                chunks=self.chunks,
                scheduler=scheduler,
                policy=policy,
            )
            for topology in PAPER_TOPOLOGY_NAMES
            for size in self.sizes[topology]
            for scheduler, policy in SCHEDULER_AXIS
        ]
        dnns = fig12_workloads(quick=True)
        grid = [
            (dnn, topology, label)
            for topology in map(get_topology, PAPER_TOPOLOGY_NAMES)
            for dnn in dnns
            for label in CONFIG_LABELS
        ]
        return specs, grid, fig12_training_config(quick=True)

    def run(self, prepared: tuple[list, list, TrainingConfig]) -> tuple[list, list]:
        specs, grid, config = prepared
        collectives = [(spec, attempt(api.run, spec)) for spec in specs]
        training = [(cell, attempt(train, *cell, config)) for cell in grid]
        return collectives, training

    def check(self, prepared: Any, result: tuple[list, list]) -> Outcome:
        collectives, training = result
        outcome = Outcome(observed={}, attempted=0)
        # (topology, size) -> scheduler label -> (comm, ideal, utilization)
        fig8: dict[tuple, dict[str, tuple[float, float, float]]] = {}
        for spec, report in collectives:
            outcome.attempted += 1
            where = f"{spec.topology} {spec.size / MB:.0f}MB {spec.scheduler}"
            if isinstance(report, ReproError):
                outcome.fail(1, f"{where}: {report}")
                continue
            payload = report.payload
            if report.truncated or payload["completed_collectives"] != 1:
                outcome.fail(1, f"{where}: collective did not finish")
            elif payload["comm_time"] < payload["ideal_time"]:
                outcome.fail(1, f"{where}: faster than the ideal bound")
            else:
                point = fig8.setdefault((spec.topology, spec.size), {})
                point[payload["scheduler_label"]] = (
                    payload["comm_time"],
                    payload["ideal_time"],
                    report.avg_utilization,
                )
        # (DNN, topology) -> configuration label -> iteration time
        fig12: dict[tuple[str, str], dict[str, float]] = {}
        for (dnn, topology, label), report in training:
            where = f"{dnn.name} on {topology.name} ({label})"
            if isinstance(report, ReproError):
                outcome.attempted += 1
                outcome.fail(1, f"{where}: {report}")
                continue
            outcome.attempted += report.collective_count
            if not (math.isfinite(report.total_time) and report.total_time > 0):
                outcome.fail(report.collective_count, f"{where}: bad iteration time")
            else:
                point = fig12.setdefault((dnn.name, topology.name), {})
                point[label] = report.total_time
        pairs = [p for p in fig8.values() if "Baseline" in p and "Themis+SCF" in p]
        scf = [point["Themis+SCF"] for point in pairs]
        per_dnn = {
            dnn: statistics.fmean(
                times["Baseline"] / times["Themis+SCF"]
                for (name, _), times in fig12.items()
                if name == dnn
            )
            for dnn in sorted({dnn for dnn, _ in fig12})
        }
        outcome.observed = {
            "sim_ar_speedup": statistics.geometric_mean(
                point["Baseline"][0] / point["Themis+SCF"][0] for point in pairs
            ),
            "sim_bw_util": statistics.fmean(util for _, _, util in scf),
            "sim_iter_speedup": statistics.fmean(per_dnn.values()),
            "sim_mean_jct_s": statistics.fmean(time for time, _, _ in scf),
            "sim_max_rho": max(time / ideal for time, ideal, _ in scf),
            **{f"iter_speedup:{dnn}": value for dnn, value in per_dnn.items()},
        }
        return outcome

    def paper_values(
        self, observed: dict[str, float]
    ) -> list[tuple[str, float, float]]:
        e2e = PAPER_HEADLINES["e2e"]
        paper = {
            "sim_ar_speedup": PAPER_HEADLINES["ar_speedup_mean"],
            "sim_bw_util": PAPER_HEADLINES["scf_utilization"],
            "sim_iter_speedup": statistics.fmean(mean for mean, _ in e2e.values()),
        }
        rows = [(name, observed[name], value) for name, value in paper.items()]
        rows += [
            (f"  {dnn}", observed[f"iter_speedup:{dnn}"], mean)
            for dnn, (mean, _) in e2e.items()
        ]
        return rows


# --- fairness_ftf -------------------------------------------------------------
def ftf_arrivals(seed: int, jobs: int, iterations: int) -> list[float]:
    """Arrival offsets: ``bench_scaling``'s stagger, jittered by ``seed``.

    The default seed keeps the reference stagger exactly; any other seed
    draws each job's arrival uniformly within its own stagger slot, so the
    arrival order is kept.
    """
    stagger = [job.arrival_time for job in bench_scaling.make_jobs(jobs, iterations)]
    if seed == DEFAULT_SEED:
        return stagger
    rng = random.Random(seed)
    gap = stagger[1] - stagger[0]
    return [start + rng.random() * gap for start in stagger]


class FairnessFtf(Workload):
    """32 jobs of the 4-profile pool under finish-time fairness."""

    name = "fairness_ftf"
    jobs = 32
    iterations = 2
    chunks = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.arrivals = ftf_arrivals(seed, self.jobs, self.iterations)
        self.config = ClusterConfig(
            training=TrainingConfig(chunks_per_collective=self.chunks),
            isolated_baselines=False,
            fairness="ftf",
        )

    def inputs(self) -> Any:
        return self.arrivals

    def setup(self) -> ClusterSimulator:
        jobs = [
            replace(job, arrival_time=arrival)
            for job, arrival in zip(
                bench_scaling.make_jobs(self.jobs, self.iterations), self.arrivals
            )
        ]
        sim = ClusterSimulator(
            bench_scaling.bench_topology(), jobs, self.config, isolated_cache={}
        )
        # FTF's isolated-JCT baselines are set-up, as in bench_scaling.py.
        for spec in jobs:
            sim.isolated_time(spec)
        return sim

    def run(self, sim: ClusterSimulator) -> Any:
        return attempt(sim.run)

    def check(self, sim: ClusterSimulator, report: Any) -> Outcome:
        outcome = Outcome(observed={}, attempted=len(sim.jobs))
        if isinstance(report, ReproError):
            outcome.fail(len(sim.jobs), f"cluster run raised: {report}")
            return outcome
        cluster_checks(outcome, report, len(sim.jobs))
        if self.seed == DEFAULT_SEED:
            committed = committed_mean_jct(self.jobs, policy="ftf")
            cross_check(outcome, report.mean_jct, committed)
        specs = {spec.name: spec for spec in sim.jobs}
        outcome.observed = {
            "sim_mean_jct_s": report.mean_jct,
            "sim_max_rho": max(
                (job.finish_time - job.admit_time) / sim.isolated_time(specs[job.name])
                for job in report.finished_jobs
            ),
            "sim_bw_util": report.utilization.average,
        }
        return outcome

    def reference(self) -> dict[str, float]:
        topology = bench_scaling.bench_topology()
        pool = bench_scaling._WORKLOAD_POOL
        sizes = sorted({layer.param_bytes for w in pool for layer in w.layers})
        return {
            "sim_ar_speedup": allreduce_speedup(topology, sizes, self.chunks),
            "sim_iter_speedup": iteration_speedup(topology, pool, self.config),
        }


# --- fluid_open_loop ----------------------------------------------------------
#: ``bench_scaling.py``'s fluid-row trace seed; the benchmark seed offsets it.
FLUID_TRACE_SEED = 7


class FluidOpenLoop(Workload):
    """4096 open-loop mouse arrivals on the fluid backend, via ``api.run``."""

    name = "fluid_open_loop"
    arrivals = 4096
    slots = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.trace_seed = FLUID_TRACE_SEED + seed
        self.config = ClusterConfig(
            training=TrainingConfig(chunks_per_collective=bench_scaling.FLUID_CHUNKS),
            isolated_baselines=False,
            backend="fluid",
        )

    def spec(self) -> api.ClusterScenario:
        # bench_scaling.py's fluid-row scenario, with the trace seed set here.
        return api.ClusterScenario(
            topology=topology_to_dict(bench_scaling.bench_topology()),
            open_loop=api.OpenLoopTrace(
                rate=20_000.0,
                duration=None,
                max_jobs=self.arrivals,
                seed=self.trace_seed,
                mix={
                    "elephant_fraction": 0.0,
                    "mouse_layers": 1,
                    "mouse_param_mb": 1.0,
                    "max_iterations": 2,
                },
            ),
            max_concurrent=self.slots,
            outcome_cap=100,
            isolated_baselines=False,
            chunks=bench_scaling.FLUID_CHUNKS,
            backend="fluid",
        )

    def inputs(self) -> Any:
        return [(job.arrival_time, job.iterations) for job in self.spec().to_jobs()]

    def setup(self) -> tuple[api.ClusterScenario, list]:
        spec = self.spec()
        return spec, spec.to_jobs()

    def run(self, prepared: tuple[api.ClusterScenario, list]) -> Any:
        return attempt(api.run, prepared[0])

    def check(self, prepared: tuple[api.ClusterScenario, list], report: Any) -> Outcome:
        _, jobs = prepared
        outcome = Outcome(observed={}, attempted=len(jobs))
        if isinstance(report, ReproError):
            outcome.fail(len(jobs), f"open-loop run raised: {report}")
            return outcome
        if report.payload["peak_live_jobs"] > self.slots:
            outcome.fail(1, "admission cap violated")
        cluster_checks(outcome, report.detail, len(jobs))
        if self.seed == DEFAULT_SEED:
            committed = committed_mean_jct(self.arrivals, backend="fluid")
            cross_check(outcome, report.payload["mean_jct"], committed)
        specs = {spec.name: spec for spec in jobs}
        # Longest admission-to-finish time per solo-baseline class.
        service: dict[str, float] = {}
        for job in report.detail.finished_jobs:
            key = f"service:{job_class(specs[job.name])}"
            service[key] = max(service.get(key, 0.0), job.finish_time - job.admit_time)
        outcome.observed = {
            "sim_mean_jct_s": report.payload["mean_jct"],
            "sim_bw_util": report.avg_utilization,
            **service,
        }
        return outcome

    def reference(self) -> dict[str, float]:
        topology = bench_scaling.bench_topology()
        classes = {job_class(spec): spec for spec in self.spec().to_jobs()}
        by_name = {spec.workload.name: spec.workload for spec in classes.values()}
        workloads = list(by_name.values())
        sizes = sorted({layer.param_bytes for w in workloads for layer in w.layers})
        chunks = bench_scaling.FLUID_CHUNKS
        return {
            "sim_ar_speedup": allreduce_speedup(topology, sizes, chunks),
            "sim_iter_speedup": iteration_speedup(topology, workloads, self.config),
            **{
                f"isolated:{key}": isolated_jct(topology, spec, self.config)
                for key, spec in classes.items()
            },
        }

    def sim_metrics(
        self, observed: dict[str, float], reference: dict[str, float]
    ) -> dict[str, float]:
        rho = max(
            value / reference[name.replace("service:", "isolated:")]
            for name, value in observed.items()
            if name.startswith("service:")
        )
        return super().sim_metrics({**observed, "sim_max_rho": rho}, reference)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (PaperHeadline, FairnessFtf, FluidOpenLoop)
}
