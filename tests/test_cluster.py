"""Multi-job cluster simulator: specs, traces, drivers, metrics."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterReport,
    ClusterSimulator,
    JobOutcome,
    JobSpec,
    isolated_jct,
    poisson_trace,
    run_cluster,
)
from repro.errors import ConfigError
from repro.topology import Topology, dimension
from repro.training import TrainingConfig, simulate_training
from repro.units import MB
from repro.workloads import Layer, Workload


def tiny_topology() -> Topology:
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
        ],
        name="tiny-4x4",
    )


def tiny_workload(
    param_mb: float = 16.0, layers: int = 4, name: str = "tiny"
) -> Workload:
    layer_list = [
        Layer(
            name=f"l{i}",
            fwd_flops=1e9,
            bwd_flops=2e9,
            param_bytes=param_mb * MB / layers,
        )
        for i in range(layers)
    ]
    return Workload(name=name, layers=layer_list, batch_per_npu=1)


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            JobSpec(name="", workload="dlrm")
        with pytest.raises(ConfigError):
            JobSpec(name="j", workload="dlrm", arrival_time=-1.0)
        with pytest.raises(ConfigError):
            JobSpec(name="j", workload="dlrm", iterations=0)
        with pytest.raises(ConfigError):
            JobSpec(name="j", workload="dlrm", scheduler="magic")

    def test_non_finite_values_rejected(self):
        nan = float("nan")
        with pytest.raises(ConfigError, match="arrival time"):
            JobSpec(name="j", workload="dlrm", arrival_time=nan)
        with pytest.raises(ConfigError, match="weight"):
            JobSpec(name="j", workload="dlrm", weight=float("inf"))
        with pytest.raises(ConfigError, match="interarrival"):
            poisson_trace(["dlrm"], nan)

    def test_resolve_workload_by_name(self):
        spec = JobSpec(name="j", workload="dlrm")
        assert spec.resolve_workload().name == "DLRM"
        assert spec.workload_name == "dlrm"

    def test_resolve_workload_instance_passthrough(self):
        workload = tiny_workload()
        spec = JobSpec(name="j", workload=workload)
        assert spec.resolve_workload() is workload
        assert spec.workload_name == "tiny"

    def test_at_arrival_copies(self):
        spec = JobSpec(name="j", workload="dlrm", arrival_time=3.0)
        moved = spec.at_arrival(0.0)
        assert moved.arrival_time == 0.0
        assert moved.name == spec.name
        assert spec.arrival_time == 3.0

    def test_scheduler_label(self):
        assert JobSpec(name="a", workload="dlrm").scheduler_label == "Themis"
        assert (
            JobSpec(name="b", workload="dlrm", scheduler="baseline").scheduler_label
            == "Baseline"
        )


class TestPoissonTrace:
    def test_deterministic_for_seed(self):
        first = poisson_trace(["dlrm", "gnmt", "dlrm"], 1e-3, seed=42)
        second = poisson_trace(["dlrm", "gnmt", "dlrm"], 1e-3, seed=42)
        assert [s.arrival_time for s in first] == [
            s.arrival_time for s in second
        ]

    def test_arrivals_monotonic_and_first_at_start(self):
        trace = poisson_trace(["dlrm"] * 5, 1e-3, seed=7, start_time=2.0)
        arrivals = [s.arrival_time for s in trace]
        assert arrivals[0] == 2.0
        assert arrivals == sorted(arrivals)

    def test_scheduler_cycling(self):
        trace = poisson_trace(
            ["dlrm"] * 4, 1e-3, schedulers=("baseline", "themis")
        )
        assert [s.scheduler for s in trace] == [
            "baseline", "themis", "baseline", "themis",
        ]

    def test_validation(self):
        with pytest.raises(ConfigError):
            poisson_trace(["dlrm"], 0.0)
        with pytest.raises(ConfigError):
            poisson_trace([], 1e-3)
        with pytest.raises(ConfigError):
            poisson_trace(["dlrm"], 1e-3, schedulers=())


class TestClusterSimulator:
    def test_single_job_matches_training_simulator(self):
        """The event-driven cluster driver and the synchronous single-job
        driver execute the same factored loop — one job alone must take
        exactly as long either way."""
        workload = tiny_workload()
        topology = tiny_topology()
        # Non-default policy: the shared cluster network must honor the
        # full TrainingConfig, not just the loop-side knobs.
        config = TrainingConfig(iterations=2, policy="FIFO")
        solo = simulate_training(workload, topology, "themis", config)
        report = run_cluster(
            topology,
            [JobSpec(name="only", workload=workload, iterations=2)],
            ClusterConfig(training=config, isolated_baselines=False),
        )
        assert report.jobs[0].jct == pytest.approx(solo.total_time)
        assert report.jobs[0].breakdown.total == pytest.approx(solo.total_time)

    def test_contention_never_speeds_jobs_up(self):
        topology = tiny_topology()
        jobs = [
            JobSpec(name=f"j{i}", workload=tiny_workload(32), arrival_time=i * 1e-4)
            for i in range(3)
        ]
        report = run_cluster(topology, jobs)
        for outcome in report.jobs:
            assert outcome.slowdown is not None
            assert outcome.slowdown >= 1.0 - 1e-9
        assert report.makespan >= report.max_jct

    def test_mixed_schedulers_reported(self):
        topology = tiny_topology()
        jobs = [
            JobSpec(name="base", workload=tiny_workload(), scheduler="baseline"),
            JobSpec(name="themis", workload=tiny_workload(), scheduler="themis"),
        ]
        report = run_cluster(
            topology, jobs, ClusterConfig(isolated_baselines=False)
        )
        assert report.job("base").scheduler_name == "Baseline"
        assert report.job("themis").scheduler_name == "Themis"

    def test_disjoint_dim_subsets_do_not_contend(self):
        """Jobs pinned to disjoint dimensions share no wires: each keeps its
        isolated completion time."""
        topology = tiny_topology()
        jobs = [
            JobSpec(name="d0", workload=tiny_workload(), dim_indices=(0,)),
            JobSpec(name="d1", workload=tiny_workload(), dim_indices=(1,)),
        ]
        report = run_cluster(topology, jobs)
        for outcome in report.jobs:
            assert outcome.slowdown == pytest.approx(1.0)

    def test_dim_subset_traffic_stays_on_subset(self):
        topology = tiny_topology()
        sim = ClusterSimulator(
            topology,
            [JobSpec(name="d1only", workload=tiny_workload(), dim_indices=(1,))],
            ClusterConfig(isolated_baselines=False),
        )
        sim.run()
        result = sim.network.result()
        assert result.dim_bytes[0] == 0.0
        assert result.dim_bytes[1] > 0.0

    def test_priority_propagates_to_requests(self):
        topology = tiny_topology()
        sim = ClusterSimulator(
            topology,
            [JobSpec(name="vip", workload=tiny_workload(), priority=5)],
            ClusterConfig(isolated_baselines=False),
        )
        sim.run()
        requests = [c.request for c in sim.network._results]
        assert requests and all(r.priority == 5 for r in requests)
        assert all(r.owner == "vip" for r in requests)

    def test_per_job_comm_active_accounting(self):
        topology = tiny_topology()
        jobs = [
            JobSpec(name="a", workload=tiny_workload()),
            JobSpec(name="b", workload=tiny_workload(), arrival_time=1e-4),
        ]
        report = run_cluster(
            topology, jobs, ClusterConfig(isolated_baselines=False)
        )
        for outcome in report.jobs:
            assert 0 < outcome.comm_active_seconds <= report.comm_active_seconds

    def test_event_budget_returns_truncated_report(self):
        """A run cut short by ``max_events`` must not look complete: the
        report is flagged truncated, the cut job has no finish time, and
        the per-job metrics are None rather than misleading numbers."""
        topology = tiny_topology()
        sim = ClusterSimulator(
            topology,
            [JobSpec(name="j", workload=tiny_workload())],
            ClusterConfig(isolated_baselines=False),
        )
        report = sim.run(max_events=3)
        assert report.truncated
        assert report.truncated_at is not None
        assert [job.name for job in report.unfinished_jobs] == ["j"]
        outcome = report.jobs[0]
        assert not outcome.finished
        assert outcome.finish_time is None
        assert outcome.jct is None and outcome.slowdown is None
        assert report.mean_jct is None and report.max_jct is None
        assert report.makespan >= 0
        assert "TRUNCATED" in report.describe()

    def test_untruncated_report_not_flagged(self):
        topology = tiny_topology()
        report = ClusterSimulator(
            topology,
            [JobSpec(name="j", workload=tiny_workload())],
            ClusterConfig(isolated_baselines=False),
        ).run()
        assert not report.truncated
        assert report.truncated_at is None
        assert report.unfinished_jobs == []
        assert "TRUNCATED" not in report.describe()

    def test_validation(self):
        topology = tiny_topology()
        with pytest.raises(ConfigError, match="at least one job"):
            ClusterSimulator(topology, [])
        with pytest.raises(ConfigError, match="duplicate"):
            ClusterSimulator(
                topology,
                [
                    JobSpec(name="same", workload=tiny_workload()),
                    JobSpec(name="same", workload=tiny_workload()),
                ],
            )

    def test_config_checks_backend_capabilities(self):
        with pytest.raises(ConfigError, match="cannot run a shared"):
            ClusterConfig(backend="ideal")
        with pytest.raises(ConfigError, match="weighted-sharing"):
            ClusterConfig(backend="packet", fairness="ftf")
        with pytest.raises(ConfigError, match="warmup_time"):
            ClusterConfig(warmup_time=float("nan"), measure_time=1.0)
        ClusterConfig(backend="packet", fairness="fifo")

    def test_isolated_jct_matches_solo_run(self):
        topology = tiny_topology()
        spec = JobSpec(name="j", workload=tiny_workload(), arrival_time=5e-3)
        solo = run_cluster(
            topology,
            [spec.at_arrival(0.0)],
            ClusterConfig(isolated_baselines=False),
        )
        assert isolated_jct(topology, spec) == pytest.approx(solo.jobs[0].jct)


class TestClusterReport:
    def _outcome(self, name, arrival, finish, isolated=None):
        return JobOutcome(
            name=name,
            workload_name="tiny",
            scheduler_name="Themis",
            arrival_time=arrival,
            finish_time=finish,
            isolated_time=isolated,
        )

    def test_aggregates(self):
        report = ClusterReport(
            topology_name="t",
            jobs=[
                self._outcome("a", 0.0, 2.0, isolated=1.0),
                self._outcome("b", 1.0, 2.5, isolated=1.5),
            ],
        )
        assert report.makespan == pytest.approx(2.5)
        assert report.mean_jct == pytest.approx((2.0 + 1.5) / 2)
        assert report.max_jct == pytest.approx(2.0)
        assert report.mean_slowdown == pytest.approx((2.0 + 1.0) / 2)
        assert report.max_slowdown == pytest.approx(2.0)

    def test_slowdown_none_without_isolated(self):
        report = ClusterReport(
            topology_name="t", jobs=[self._outcome("a", 0.0, 1.0)]
        )
        assert report.mean_slowdown is None
        assert report.jobs[0].slowdown is None

    def test_job_lookup(self):
        report = ClusterReport(
            topology_name="t", jobs=[self._outcome("a", 0.0, 1.0)]
        )
        assert report.job("a").name == "a"
        with pytest.raises(KeyError):
            report.job("missing")

    def test_describe_mentions_jobs(self):
        topology = tiny_topology()
        jobs = [
            JobSpec(name="alpha", workload=tiny_workload()),
            JobSpec(name="beta", workload=tiny_workload(), scheduler="baseline"),
        ]
        text = run_cluster(topology, jobs).describe()
        assert "alpha" in text and "beta" in text
        assert "slowdown" in text and "makespan" in text
