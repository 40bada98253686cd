"""Analysis package: provisioning classification, sweeps, table rendering."""

from __future__ import annotations

import pytest

from repro import api
from repro.analysis import (
    ProvisioningVerdict,
    assess,
    classify_pair,
    classify_topology,
    format_table,
    geometric_mean,
    ms,
    pct,
    ratio,
    us,
)
from repro.api.runner import scheduler_label
from repro.collectives import CollectiveType
from repro.core import achievable_utilization
from repro.experiments.fig8 import SCHEDULER_AXIS, microbench_records
from repro.topology import Topology, dimension, get_topology, topology_to_dict
from repro.units import MB


def two_dim(bw1: float, bw2: float, p1: int = 4, p2: int = 4) -> Topology:
    return Topology(
        [
            dimension("ring", p1, bw1, latency_ns=0),
            dimension("ring", p2, bw2, latency_ns=0),
        ]
    )


class TestClassifyPair:
    def test_just_enough(self):
        verdict = classify_pair(two_dim(400.0, 100.0), 0, 1)
        assert verdict.scenario is ProvisioningVerdict.JUST_ENOUGH
        assert verdict.ratio == pytest.approx(1.0)

    def test_over_provisioned(self):
        verdict = classify_pair(two_dim(400.0, 200.0), 0, 1)
        assert verdict.scenario is ProvisioningVerdict.OVER_PROVISIONED
        assert verdict.ratio == pytest.approx(0.5)

    def test_under_provisioned(self):
        verdict = classify_pair(two_dim(400.0, 50.0), 0, 1)
        assert verdict.scenario is ProvisioningVerdict.UNDER_PROVISIONED
        assert verdict.ratio == pytest.approx(2.0)

    def test_tolerance_band(self):
        verdict = classify_pair(two_dim(400.0, 100.4), 0, 1, tolerance=0.01)
        assert verdict.scenario is ProvisioningVerdict.JUST_ENOUGH

    def test_invalid_indices(self):
        topo = two_dim(400.0, 100.0)
        with pytest.raises(ValueError):
            classify_pair(topo, 1, 1)
        with pytest.raises(ValueError):
            classify_pair(topo, 1, 0)

    def test_non_adjacent_pair_uses_product(self):
        topo = Topology(
            [
                dimension("ring", 4, 800.0, latency_ns=0),
                dimension("ring", 2, 200.0, latency_ns=0),
                dimension("ring", 4, 100.0, latency_ns=0),
            ]
        )
        verdict = classify_pair(topo, 0, 2)
        # shrink = 4 x 2 = 8; 800 / (8 x 100) = 1.0 -> just enough.
        assert verdict.scenario is ProvisioningVerdict.JUST_ENOUGH


class TestClassifyTopology:
    def test_pair_count(self):
        topo = get_topology("3D-SW_SW_SW_homo")
        assert len(classify_topology(topo)) == 3  # (1,2) (1,3) (2,3)

    def test_paper_topologies_over_provisioned_somewhere(self):
        """Every Table 2 next-gen system has at least one over-provisioned
        pair — that is exactly why Themis is needed there."""
        from repro.topology import paper_topologies

        for topo in paper_topologies():
            scenarios = {a.scenario for a in classify_topology(topo)}
            assert ProvisioningVerdict.OVER_PROVISIONED in scenarios, topo.name


class TestMaxDrivableUtilization:
    def test_over_provisioned_reaches_one(self):
        util = achievable_utilization(
            CollectiveType.ALL_REDUCE, two_dim(400.0, 200.0)
        )
        assert util == pytest.approx(1.0, abs=1e-6)

    def test_under_provisioned_capped(self):
        util = achievable_utilization(CollectiveType.ALL_REDUCE, two_dim(400.0, 25.0))
        assert util < 0.9

    def test_assess_report_renders(self):
        report = assess(get_topology("2D-SW_SW"))
        text = report.describe()
        assert "2D-SW_SW" in text
        assert "max drivable" in text


class TestSweepHarness:
    """The microbenchmark records the Fig. 8-11 sweeps produce."""

    def test_scheduler_labels(self):
        assert scheduler_label("baseline", "FIFO") == "Baseline"
        assert scheduler_label("themis", "scf") == "Themis+SCF"
        assert [scheduler_label(*pair) for pair in SCHEDULER_AXIS] == [
            "Baseline",
            "Themis+FIFO",
            "Themis+SCF",
        ]

    def test_run_collective_record(self, small_2d):
        base = api.CollectiveScenario(
            topology=topology_to_dict(small_2d), size=8 * MB, chunks=4
        )
        result = api.sweep(base, {"scheduler+policy": [("themis", "SCF")]})
        [record] = microbench_records(result)
        execution = result.points[0].report.detail
        assert record.scheduler == "Themis+SCF"
        assert record.comm_time == pytest.approx(execution.makespan)
        assert 0 < record.utilization <= 1
        assert record.ideal_time <= record.comm_time * (1 + 1e-9)
        assert record.speedup_potential >= 1.0 - 1e-9

    def test_sweep_cartesian_size(self, small_2d, asymmetric_3d):
        axes = {
            "topology": [topology_to_dict(small_2d), topology_to_dict(asymmetric_3d)],
            "size": [8 * MB, 16 * MB],
            "scheduler+policy": list(SCHEDULER_AXIS),
        }
        records = microbench_records(api.sweep(api.CollectiveScenario(chunks=4), axes))
        assert len(records) == 2 * 2 * 3

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestTables:
    def test_basic_alignment(self):
        table = format_table(
            ["name", "value"], [("a", 1), ("long-name", 22)]
        )
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("name")
        assert all(len(line) <= len(lines[1]) + 2 for line in lines)

    def test_formatters(self):
        assert pct(0.5) == "50.0%"
        assert ratio(1.724) == "1.72x"
        assert ms(0.00123) == "1.23ms"
        assert us(1.5e-6) == "1.5us"

    def test_row_length_validation(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [("only-one",)])

    def test_formatter_count_validation(self):
        with pytest.raises(ValueError):
            format_table(["a"], [("x",)], formats=[str, str])

    def test_indent(self):
        table = format_table(["h"], [("v",)], indent="  ")
        assert all(line.startswith("  ") for line in table.splitlines())
