"""Training-loop simulator: breakdowns, overlap semantics, DP styles."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, WorkloadError
from repro.topology import Topology, dimension, get_topology
from repro.training import (
    IterationBreakdown,
    TrainingConfig,
    TrainingSimulator,
    simulate_training,
)
from repro.units import MB
from repro.workloads import ComputeModel, Layer, Workload, dlrm, transformer_1t


def tiny_topology() -> Topology:
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
        ],
        name="tiny-4x4",
    )


def tiny_workload(param_mb: float = 16.0, layers: int = 4) -> Workload:
    layer_list = [
        Layer(
            name=f"l{i}",
            fwd_flops=1e9,
            bwd_flops=2e9,
            param_bytes=param_mb * MB / layers,
        )
        for i in range(layers)
    ]
    return Workload(name="tiny", layers=layer_list, batch_per_npu=1)


class TestIterationBreakdown:
    def test_total_is_sum_of_parts(self):
        b = IterationBreakdown(1.0, 2.0, 0.5, 0.25)
        assert b.total == pytest.approx(3.75)
        assert b.exposed_comm == pytest.approx(0.75)
        assert b.compute == pytest.approx(3.0)

    def test_addition(self):
        a = IterationBreakdown(1.0, 1.0, 1.0, 1.0)
        b = IterationBreakdown(0.5, 0.5, 0.5, 0.5)
        combined = a + b
        assert combined.total == pytest.approx(6.0)

    def test_as_row_keys(self):
        row = IterationBreakdown().as_row()
        assert set(row) == {"fwd_compute", "bwd_compute", "exposed_mp",
                            "exposed_dp", "total"}


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            TrainingConfig(iterations=0)
        with pytest.raises(WorkloadError):
            TrainingConfig(dp_bucket_bytes=-1.0)

    def test_chunks_and_non_finite_bucket(self):
        with pytest.raises(ConfigError, match="chunks per collective"):
            TrainingConfig(chunks_per_collective=0)
        with pytest.raises(WorkloadError, match="bucket"):
            TrainingConfig(dp_bucket_bytes=float("inf"))


class TestBasicInvariants:
    def test_total_equals_parts(self):
        report = simulate_training(tiny_workload(), tiny_topology(), "themis")
        breakdown = report.total
        # Walltime identity: only compute and waits advance the clock.
        assert breakdown.total == pytest.approx(
            breakdown.fwd_compute
            + breakdown.bwd_compute
            + breakdown.exposed_mp
            + breakdown.exposed_dp
        )

    def test_compute_matches_roofline(self):
        workload = tiny_workload()
        model = ComputeModel()
        expected_fwd = sum(
            model.time_for(l.fwd_flops, l.fwd_mem_bytes) for l in workload.layers
        )
        report = simulate_training(workload, tiny_topology(), "themis")
        assert report.total.fwd_compute == pytest.approx(expected_fwd)

    def test_multiple_iterations_accumulate(self):
        config = TrainingConfig(iterations=3)
        report = simulate_training(
            tiny_workload(), tiny_topology(), "themis", config
        )
        assert len(report.iterations) == 3
        assert report.total_time == pytest.approx(
            sum(i.total for i in report.iterations)
        )

    def test_iterations_are_identical(self):
        """Same workload, same network state at start => same breakdown."""
        config = TrainingConfig(iterations=2)
        report = simulate_training(
            tiny_workload(), tiny_topology(), "baseline", config
        )
        first, second = report.iterations
        assert first.total == pytest.approx(second.total)

    def test_collective_count(self):
        report = simulate_training(tiny_workload(param_mb=16, layers=4),
                                   tiny_topology(), "themis")
        # Per-layer issuance: one DP All-Reduce per layer.
        assert report.collective_count == 4

    def test_utilization_reported_for_real_network(self):
        report = simulate_training(tiny_workload(), tiny_topology(), "themis")
        assert report.avg_bw_utilization is not None
        assert 0 < report.avg_bw_utilization <= 1

    def test_keeps_no_op_records(self):
        """No training output reads per-op records, so none are kept."""
        sim = TrainingSimulator(tiny_workload(), tiny_topology(), scheduler="themis")
        sim.run()
        result = sim.network.result()
        assert result.collectives
        assert result.records == []

    def test_ideal_has_no_utilization(self):
        report = simulate_training(
            tiny_workload(), tiny_topology(), ideal_network=True
        )
        assert report.avg_bw_utilization is None
        assert report.scheduler_name == "Ideal"


class TestOverlapSemantics:
    def test_overlap_reduces_exposed_dp(self):
        workload = tiny_workload(param_mb=256)
        sync = simulate_training(
            workload, tiny_topology(), "themis",
            TrainingConfig(overlap_dp=False),
        )
        overlapped = simulate_training(
            workload, tiny_topology(), "themis",
            TrainingConfig(overlap_dp=True),
        )
        assert overlapped.total.exposed_dp < sync.total.exposed_dp
        assert overlapped.total_time <= sync.total_time

    def test_sync_mode_exposes_full_comm(self):
        """With sync DP, compute and comm never overlap: total time is
        compute plus the full network makespan of the gradient ARs."""
        workload = tiny_workload(param_mb=64)
        report = simulate_training(
            workload, tiny_topology(), "baseline",
            TrainingConfig(overlap_dp=False),
        )
        assert report.total.exposed_dp > 0

    def test_bucketing_reduces_collective_count(self):
        workload = tiny_workload(param_mb=64, layers=8)
        per_layer = simulate_training(
            workload, tiny_topology(), "themis",
            TrainingConfig(dp_bucket_bytes=None),
        )
        bucketed = simulate_training(
            workload, tiny_topology(), "themis",
            TrainingConfig(dp_bucket_bytes=32 * MB),
        )
        assert bucketed.collective_count < per_layer.collective_count


class TestZero2:
    def test_zero2_issues_rs_and_ag(self):
        layer = Layer(name="l0", fwd_flops=1e9, bwd_flops=2e9,
                      param_bytes=32 * MB)
        workload = Workload(
            name="z2", layers=[layer], batch_per_npu=1, dp_style="zero2"
        )
        sim = TrainingSimulator(workload, tiny_topology(), scheduler="themis")
        report = sim.run()
        # One RS during bwd + one AG at the end.
        assert report.collective_count == 2
        assert report.total.exposed_dp > 0

    def test_zero2_ag_size_is_sharded(self):
        layer = Layer(name="l0", fwd_flops=1e9, bwd_flops=2e9,
                      param_bytes=32 * MB)
        workload = Workload(
            name="z2", layers=[layer], batch_per_npu=1, dp_style="zero2"
        )
        sim = TrainingSimulator(workload, tiny_topology(), scheduler="themis")
        sim.run()
        requests = [c.request for c in sim.network._results]
        ag = [r for r in requests if r.ctype.value == "AllGather"]
        assert len(ag) == 1
        # 16-way DP on 4x4 => AG resident size is bucket / 16.
        assert ag[0].size == pytest.approx(32 * MB / 16)


class TestModelParallelWorkloads:
    def test_transformer_mp_exposed(self):
        topology = get_topology("3D-SW_SW_SW_homo")
        workload = transformer_1t(num_layers=2)
        report = simulate_training(workload, topology, "themis")
        assert report.total.exposed_mp > 0
        # Blocking activation ARs: 2 sub-layers x 2 passes x 2 layers + head.
        assert report.total.exposed_mp > report.total.exposed_dp * 0.1

    def test_dlrm_a2a_overlap(self):
        """DLRM's embedding exchange overlaps the bottom MLP: exposed MP is
        strictly less than the raw A2A duration."""
        topology = get_topology("3D-SW_SW_SW_homo")
        report = simulate_training(dlrm(), topology, "themis")
        assert report.total.exposed_mp >= 0
        # Both A2A waits resolved; nothing leaks across iterations.
        assert report.collective_count > 2

    def test_themis_not_slower_than_baseline_e2e(self):
        topology = get_topology("3D-SW_SW_SW_homo")
        workload = transformer_1t(num_layers=2)
        baseline = simulate_training(workload, topology, "baseline")
        themis = simulate_training(workload, topology, "themis")
        assert themis.total_time <= baseline.total_time * 1.01

    def test_ideal_bounds_real_schedulers(self):
        topology = get_topology("3D-SW_SW_SW_hetero")
        workload = transformer_1t(num_layers=2)
        config = TrainingConfig(overlap_dp=False)
        ideal = simulate_training(
            workload, topology, config=config, ideal_network=True
        )
        themis = simulate_training(workload, topology, "themis", config)
        assert ideal.total_time <= themis.total_time * 1.001


class TestReportHelpers:
    def test_speedup_over(self):
        a = simulate_training(tiny_workload(), tiny_topology(), "baseline")
        b = simulate_training(tiny_workload(), tiny_topology(), "themis")
        assert b.speedup_over(a) == pytest.approx(a.total_time / b.total_time)

    def test_describe_mentions_names(self):
        report = simulate_training(tiny_workload(), tiny_topology(), "themis")
        text = report.describe()
        assert "tiny" in text and "Themis" in text
