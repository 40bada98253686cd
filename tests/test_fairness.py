"""Cluster fairness layer: weighted shares, finish-time fairness, preemption."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterReport,
    ClusterSimulator,
    FairnessPolicy,
    FifoSharing,
    FinishTimeFairness,
    JobOutcome,
    JobSpec,
    PriorityPreemption,
    WeightedSharing,
    fairness_names,
    get_fairness,
)
from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import SchedulerFactory, Splitter
from repro.errors import ConfigError
from repro.experiments import run_fairness_comparison, skewed_trace
from repro.sim import FusionConfig, NetworkSimulator
from repro.topology import Topology, dimension
from repro.training import TrainingConfig
from repro.units import MB
from repro.workloads import Layer, Workload

#: Coarser chunking than the default 64 keeps cluster tests fast; the
#: fairness effects are identical.
FAST_TRAINING = TrainingConfig(chunks_per_collective=16)


def fast_config(fairness=None, isolated_baselines=True) -> ClusterConfig:
    # record_ops defaults to False for cluster runs (sweeps do not read
    # per-op records); these tests assert on shared-network timelines, so
    # they opt back in.
    return ClusterConfig(
        training=FAST_TRAINING,
        isolated_baselines=isolated_baselines,
        fairness=fairness,
        record_ops=True,
    )


def one_dim_topology() -> Topology:
    return Topology([dimension("sw", 4, 400.0, latency_ns=100)], name="1d")


def tiny_topology() -> Topology:
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
        ],
        name="tiny-4x4",
    )


def comm_heavy_workload(layers: int, param_mb: float, name: str) -> Workload:
    return Workload(
        name=name,
        layers=[
            Layer(
                name=f"l{i}",
                fwd_flops=1e8,
                bwd_flops=2e8,
                param_bytes=param_mb * MB,
            )
            for i in range(layers)
        ],
        batch_per_npu=1,
    )


def tiny_skewed_jobs() -> list[JobSpec]:
    """Elephant floods small chunks; mouse's large chunks starve under SCF."""
    return [
        JobSpec(
            name="elephant",
            workload=comm_heavy_workload(16, 4, "elephant"),
            iterations=3,
        ),
        JobSpec(
            name="mouse",
            workload=comm_heavy_workload(1, 64, "mouse"),
            arrival_time=1e-4,
            iterations=1,
            weight=2.0,
        ),
        JobSpec(
            name="urgent",
            workload=comm_heavy_workload(1, 32, "urgent"),
            arrival_time=5e-4,
            iterations=1,
            priority=2,
            weight=2.0,
        ),
    ]


@pytest.fixture(scope="module")
def tiny_comparison():
    """One 4-policy comparison on the tiny platform, shared across tests."""
    return run_fairness_comparison(
        topology=tiny_topology(), jobs=tiny_skewed_jobs(), training=FAST_TRAINING
    )


class TestFairnessRegistry:
    def test_names(self):
        assert set(fairness_names()) == {"fifo", "weighted", "ftf", "preempt"}

    def test_get_by_name(self):
        assert isinstance(get_fairness("fifo"), FifoSharing)
        assert isinstance(get_fairness("weighted"), WeightedSharing)
        assert isinstance(get_fairness("FTF"), FinishTimeFairness)
        assert isinstance(get_fairness("preempt"), PriorityPreemption)

    def test_none_and_instance_passthrough(self):
        assert get_fairness(None) is None
        policy = FinishTimeFairness(interval=1e-3)
        assert get_fairness(policy) is policy

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown fairness"):
            get_fairness("karma")

    def test_ftf_validation(self):
        with pytest.raises(ConfigError):
            FinishTimeFairness(interval=0.0)
        with pytest.raises(ConfigError):
            FinishTimeFairness(exponent=-1.0)
        with pytest.raises(ConfigError):
            FinishTimeFairness(min_share=0.0)

    def test_job_weight_validation(self):
        with pytest.raises(ConfigError, match="weight"):
            JobSpec(name="j", workload="dlrm", weight=0.0)

    def test_weighted_sharing_checks_weights_at_construction(self):
        with pytest.raises(ConfigError, match="weights"):
            WeightedSharing(weights={"a": float("nan")})
        with pytest.raises(ConfigError, match="weights"):
            WeightedSharing(weights_by_dim={"a": {0: float("inf")}})
        with pytest.raises(ConfigError):
            FinishTimeFairness(exponent=float("inf"))

    def test_every_policy_describes_itself(self):
        for name in fairness_names():
            policy = get_fairness(name)
            assert isinstance(policy, FairnessPolicy)
            assert policy.describe()


class TestWeightedWire:
    """Direct checks of the fluid weighted-sharing wire discipline."""

    def _simulator(self) -> NetworkSimulator:
        return NetworkSimulator(
            one_dim_topology(),
            SchedulerFactory("themis", splitter=Splitter(1)),
            fusion=FusionConfig(enabled=False),
        )

    def test_split_matches_configured_ratio(self):
        """Equal work at weights 3:1: the light tenant finishes at exactly
        2x the full-rate time, the heavy one at 4/3 of it.  Zero step
        latency so the fluid-sharing math is exact."""
        sim = NetworkSimulator(
            Topology([dimension("sw", 4, 400.0, latency_ns=0)], name="1d-nolat"),
            SchedulerFactory("themis", splitter=Splitter(1)),
            fusion=FusionConfig(enabled=False),
        )
        sim.set_tenant_weights({"a": 3.0, "b": 1.0})
        ra = sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="a")
        )
        rb = sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="b")
        )
        sim.run()
        # Shared phase: a drains at 3/4 rate, so a's work (T at full rate)
        # completes at 4T/3; b then finishes its remaining 2T/3 alone at 2T.
        assert rb.duration / ra.duration == pytest.approx(1.5, rel=1e-6)

    def test_equal_weights_finish_together(self):
        sim = self._simulator()
        sim.set_tenant_weights({})  # default weight 1.0 for everybody
        ra = sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="a")
        )
        rb = sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="b")
        )
        sim.run()
        assert ra.completion_time == pytest.approx(rb.completion_time)

    def test_single_tenant_runs_at_full_rate(self):
        """Alone on the wire, weighted sharing must match the serial wire."""
        serial = self._simulator()
        rs = serial.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="a")
        )
        serial.run()
        shared = self._simulator()
        shared.set_tenant_weights({"a": 2.0})
        rw = shared.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="a")
        )
        shared.run()
        assert rw.completion_time == pytest.approx(rs.completion_time)

    def test_work_is_conserved_under_sharing(self):
        sim = self._simulator()
        sim.set_tenant_weights({"a": 3.0, "b": 1.0})
        sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="a")
        )
        sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="b")
        )
        shared = sim.run()
        serial_sim = self._simulator()
        serial_sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="a")
        )
        serial_sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="b")
        )
        serial = serial_sim.run()
        assert shared.dim_bytes[0] == pytest.approx(serial.dim_bytes[0])
        assert shared.dim_transfer_seconds[0] == pytest.approx(
            serial.dim_transfer_seconds[0]
        )

    def test_reweighting_mid_run_takes_effect(self):
        """Starving a tenant down to epsilon then restoring it must still
        drain all work (no deadlock) and delay the de-weighted tenant."""
        sim = self._simulator()
        sim.set_tenant_weights({"a": 1.0, "b": 1.0})
        ra = sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="a")
        )
        rb = sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, owner="b")
        )
        # Mid-transfer, shift almost all bandwidth to a.
        sim.engine.schedule(2e-4, lambda: sim.set_tenant_weights({"a": 99.0, "b": 1.0}))
        sim.run()
        assert ra.done and rb.done
        assert ra.completion_time < rb.completion_time

    def test_weight_validation(self):
        sim = self._simulator()
        with pytest.raises(ConfigError, match="positive"):
            sim.set_tenant_weights({"a": -1.0})
        with pytest.raises(ConfigError, match="positive"):
            sim.set_tenant_weights({}, default=0.0)


class TestPreemptionWire:
    """Direct checks of serial-wire priority preemption."""

    def _submit_pair(self, sim):
        big = sim.submit(
            CollectiveRequest(
                CollectiveType.REDUCE_SCATTER, 256 * MB, priority=0, owner="lo"
            )
        )
        high = sim.submit(
            CollectiveRequest(
                CollectiveType.REDUCE_SCATTER, 8 * MB, priority=5, owner="hi"
            ),
            at_time=1e-4,
        )
        return big, high

    def _simulator(self) -> NetworkSimulator:
        return NetworkSimulator(
            one_dim_topology(),
            SchedulerFactory("themis", splitter=Splitter(1)),
            fusion=FusionConfig(enabled=False),
        )

    def test_preemption_shortens_high_priority_wait(self):
        serial = self._simulator()
        _, high_serial = self._submit_pair(serial)
        serial.run()
        preempt = self._simulator()
        preempt.enable_preemption()
        big, high = self._submit_pair(preempt)
        preempt.run()
        assert preempt.preemption_count > 0
        assert high.completion_time < high_serial.completion_time
        assert big.done

    def test_preemption_conserves_work(self):
        """No chunk byte or wire-second is lost or double-counted."""
        serial = self._simulator()
        self._submit_pair(serial)
        baseline = serial.run()
        preempting = self._simulator()
        preempting.enable_preemption()
        self._submit_pair(preempting)
        result = preempting.run()
        assert result.dim_bytes[0] == pytest.approx(baseline.dim_bytes[0])
        assert result.dim_transfer_seconds[0] == pytest.approx(
            baseline.dim_transfer_seconds[0]
        )
        # Every op completed exactly once.
        assert len(result.records) == len(baseline.records)

    def test_equal_priority_never_preempts(self):
        sim = self._simulator()
        sim.enable_preemption()
        sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 64 * MB, priority=1)
        )
        sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 8 * MB, priority=1),
            at_time=1e-4,
        )
        sim.run()
        assert sim.preemption_count == 0


class TestPausedResumeOrder:
    """`_best_paused` order: priority first, most-recently-preempted on ties."""

    def _channel(self):
        from repro.core import get_policy
        from repro.sim import EventQueue
        from repro.sim.executor import DimensionChannel
        from repro.topology import dimension

        return DimensionChannel(
            0,
            dimension("sw", 4, 400.0, latency_ns=100),
            get_policy("fifo"),
            FusionConfig(enabled=False),
            EventQueue(),
            on_batch_done=lambda channel, batch: None,
        )

    @staticmethod
    def _paused_batch(priority: int):
        from repro.collectives.phases import Stage
        from repro.collectives.types import PhaseOp
        from repro.sim.executor import OpState, _RunningBatch

        op = OpState(
            collective_seq=0,
            chunk_id=0,
            stage_index=0,
            stage=Stage(dim_index=0, op=PhaseOp.RS, stage_size=1.0),
            parent_dim=0,
            bytes_sent=1.0,
            transfer_time=1.0,
            fixed_time=0.0,
            priority=priority,
        )
        return _RunningBatch(
            [op], fixed=0.0, transfer=1.0, bytes_total=1.0, priority=priority
        )

    def test_tie_resumes_most_recently_preempted(self):
        """Docstring contract: on equal priority the batch preempted last
        (appended to ``_paused`` last) resumes first."""
        channel = self._channel()
        early = self._paused_batch(priority=1)
        late = self._paused_batch(priority=1)
        channel._paused = [early, late]
        assert channel._best_paused() is late

    def test_strictly_higher_priority_still_dominates(self):
        channel = self._channel()
        high = self._paused_batch(priority=2)
        low_but_recent = self._paused_batch(priority=1)
        channel._paused = [high, low_but_recent]
        assert channel._best_paused() is high
        channel._paused = [low_but_recent, high]
        assert channel._best_paused() is high

    def test_empty_paused_returns_none(self):
        assert self._channel()._best_paused() is None


class TestClusterFairnessPolicies:
    def test_fifo_policy_matches_unfenced_run(self, tiny_comparison):
        """The named FIFO policy is the default behavior, only labeled."""
        plain = ClusterSimulator(
            tiny_topology(), tiny_skewed_jobs(),
            fast_config(isolated_baselines=False),
        ).run()
        fifo = tiny_comparison.report("fifo")
        for a, b in zip(plain.jobs, fifo.jobs):
            assert a.jct == pytest.approx(b.jct)
        assert plain.fairness_name is None
        assert fifo.fairness_name == "FIFO"

    def test_ftf_beats_fifo_max_rho_on_skewed_trace(self, tiny_comparison):
        """The acceptance headline: finish-time-fair re-weighting achieves
        strictly lower max rho (better fairness) than FIFO."""
        fifo = tiny_comparison.report("fifo")
        ftf = tiny_comparison.report("ftf")
        assert ftf.max_rho < fifo.max_rho
        assert ftf.jains_fairness_index > fifo.jains_fairness_index

    def test_weighted_policy_caps_flood_tenant(self, tiny_comparison):
        fifo = tiny_comparison.report("fifo")
        weighted = tiny_comparison.report("weighted")
        assert weighted.max_rho < fifo.max_rho
        assert weighted.fairness_name.startswith("Weighted")

    def test_preemption_policy_serves_priority_job(self, tiny_comparison):
        report = tiny_comparison.report("preempt")
        assert report.preemption_count > 0
        assert report.job("urgent").rho == pytest.approx(1.0, abs=0.02)

    def test_preemption_cluster_conserves_bytes(self):
        topology = tiny_topology()
        fifo_sim = ClusterSimulator(
            topology, tiny_skewed_jobs(),
            fast_config(fairness="fifo", isolated_baselines=False),
        )
        fifo_sim.run()
        fifo_result = fifo_sim.network.result()
        preempt_sim = ClusterSimulator(
            topology, tiny_skewed_jobs(),
            fast_config(fairness="preempt", isolated_baselines=False),
        )
        preempt_sim.run()
        preempt_result = preempt_sim.network.result()
        assert preempt_sim.network.preemption_count > 0
        for dim in range(topology.ndims):
            assert preempt_result.dim_bytes[dim] == pytest.approx(
                fifo_result.dim_bytes[dim]
            )
            assert preempt_result.dim_transfer_seconds[dim] == pytest.approx(
                fifo_result.dim_transfer_seconds[dim]
            )
        assert len(preempt_result.records) == len(fifo_result.records)

    def test_ftf_reweights_and_records_trace(self):
        policy = FinishTimeFairness()
        ClusterSimulator(
            tiny_topology(), tiny_skewed_jobs(),
            fast_config(fairness=policy, isolated_baselines=False),
        ).run()
        assert policy.reweight_count > 0
        assert policy.rho_trace
        times = [t for t, _ in policy.rho_trace]
        assert times == sorted(times)
        for _, estimates in policy.rho_trace:
            assert set(estimates) == {"elephant", "mouse", "urgent"}
            assert all(r >= 1.0 - 1e-9 for r in estimates.values())

    def test_ftf_tick_stops_when_nothing_can_progress(self):
        """A stuck cluster must drain to DeadlockError, not tick forever."""
        policy = FinishTimeFairness(interval=1e-4)
        sim = ClusterSimulator(
            tiny_topology(),
            [JobSpec(name="j", workload=comm_heavy_workload(1, 8, "w"))],
            fast_config(fairness=policy, isolated_baselines=False),
        )
        # Prepare schedules the first tick, but the drivers never start, so
        # no event can ever finish the job: the tick must stop re-arming.
        policy.prepare(sim)
        sim.engine.run()  # would never return if the tick re-armed forever
        assert not sim.drivers[0].finished

    def test_ftf_policy_instance_reusable_across_runs(self):
        policy = FinishTimeFairness()
        config = fast_config(fairness=policy, isolated_baselines=False)
        first = ClusterSimulator(
            tiny_topology(), tiny_skewed_jobs(), config
        ).run()
        first_trace_len = len(policy.rho_trace)
        second = ClusterSimulator(
            tiny_topology(), tiny_skewed_jobs(), config
        ).run()
        assert [j.jct for j in second.jobs] == pytest.approx(
            [j.jct for j in first.jobs]
        )
        # Per-run state was reset, not accumulated across runs.
        assert len(policy.rho_trace) == first_trace_len

    def test_single_job_same_jct_under_every_policy(self):
        """Alone in the cluster, every sharing discipline is equivalent."""
        topology = tiny_topology()
        jobs = [
            JobSpec(
                name="solo",
                workload=comm_heavy_workload(4, 16, "solo"),
                iterations=2,
            )
        ]
        jcts = []
        for policy in (None, "fifo", "weighted", "ftf", "preempt"):
            report = ClusterSimulator(
                topology,
                [jobs[0]],
                fast_config(fairness=policy, isolated_baselines=False),
            ).run()
            jcts.append(report.jobs[0].jct)
        for jct in jcts[1:]:
            assert jct == pytest.approx(jcts[0])


class TestFairnessMetrics:
    def _outcome(self, name, jct, isolated):
        return JobOutcome(
            name=name,
            workload_name="w",
            scheduler_name="Themis",
            arrival_time=0.0,
            finish_time=jct,
            isolated_time=isolated,
        )

    def test_rho_aliases_slowdown(self):
        outcome = self._outcome("a", 2.0, 1.0)
        assert outcome.rho == outcome.slowdown == pytest.approx(2.0)

    def test_jains_index_perfectly_fair(self):
        report = ClusterReport(
            topology_name="t",
            jobs=[self._outcome("a", 2.0, 1.0), self._outcome("b", 3.0, 1.5)],
        )
        assert report.jains_fairness_index == pytest.approx(1.0)
        assert report.max_rho == pytest.approx(2.0)
        assert report.mean_rho == pytest.approx(2.0)

    def test_jains_index_skewed(self):
        report = ClusterReport(
            topology_name="t",
            jobs=[self._outcome("a", 1.0, 1.0), self._outcome("b", 3.0, 1.0)],
        )
        # (1+3)^2 / (2 * (1+9)) = 16/20
        assert report.jains_fairness_index == pytest.approx(0.8)

    def test_jains_index_none_without_isolated(self):
        report = ClusterReport(
            topology_name="t",
            jobs=[
                JobOutcome(
                    name="a",
                    workload_name="w",
                    scheduler_name="Themis",
                    arrival_time=0.0,
                    finish_time=1.0,
                )
            ],
        )
        assert report.jains_fairness_index is None
        assert report.max_rho is None

    def test_describe_mentions_fairness(self, tiny_comparison):
        text = tiny_comparison.report("preempt").describe()
        assert "fairness" in text and "rho" in text
        assert "Jain index" in text
        assert "preemptions" in text


class TestFairnessExperiment:
    def test_comparison_on_tiny_platform(self, tiny_comparison):
        result = tiny_comparison
        assert set(result.reports) == {"fifo", "weighted", "ftf", "preempt"}
        assert result.max_rho("ftf") < result.max_rho("fifo")
        assert result.ftf_vs_fifo() > 1.0
        rendered = result.render()
        assert "max rho" in rendered and "Jain idx" in rendered
        assert "finish-time fair vs FIFO" in rendered

    def test_policy_subset_and_validation(self):
        result = run_fairness_comparison(
            topology=tiny_topology(),
            jobs=tiny_skewed_jobs(),
            policies=("fifo",),
            training=FAST_TRAINING,
        )
        assert set(result.reports) == {"fifo"}
        with pytest.raises(ConfigError, match="unknown fairness"):
            run_fairness_comparison(
                topology=tiny_topology(),
                jobs=tiny_skewed_jobs(),
                policies=("karma",),
            )

    def test_skewed_trace_shape(self):
        trace = skewed_trace()
        assert [spec.name for spec in trace] == ["elephant", "mouse", "urgent"]
        assert trace[2].priority > trace[0].priority
        with pytest.raises(ConfigError):
            skewed_trace(scale=0.0)
