"""Integration tests: the experiment harnesses reproduce the paper's shape.

These run the quick variants so the suite stays fast. The paper's numbers
and the checks against them live in the claims ledger, tests/test_claims.py,
which also runs the full-size Fig. 8 and Fig. 10 sweeps.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    run_fig4,
    run_fig5,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
)
from repro.experiments.fig12 import fig12_training_config, fig12_workloads
from repro.units import MB


class TestFig5:
    def test_fig7_walkthrough(self):
        result = run_fig5()
        assert result.themis_orders == [(0, 1), (1, 0), (0, 1), (0, 1)]
        assert result.load_evolution[0] == (
            pytest.approx(2.0),
            pytest.approx(1.0),
        )
        assert result.load_evolution[1] == (
            pytest.approx(2.5),
            pytest.approx(5.0),
        )

    def test_render_includes_gantts(self):
        text = run_fig5().render()
        assert "Baseline pipeline" in text and "Themis pipeline" in text
        assert "dim1" in text and "dim2" in text


@pytest.fixture(scope="module")
def fig8_quick():
    return run_fig8(quick=True)


class TestFig8:
    def test_record_count(self, fig8_quick):
        # 6 topologies x 2 sizes x 3 schedulers.
        assert len(fig8_quick.records) == 36

    def test_scf_wins_on_average(self, fig8_quick):
        assert fig8_quick.mean_speedup("Themis+SCF") > 1.25
        assert fig8_quick.max_speedup("Themis+SCF") > 2.0

    def test_homo_topology_is_the_max(self, fig8_quick):
        """3D-SW_SW_SW_homo is the paper's most imbalanced case."""
        speedups = {}
        for (topo, size), group in fig8_quick._by_key().items():
            if size < 1000 * MB:
                continue
            speedups[topo] = (
                group["Baseline"].comm_time / group["Themis+SCF"].comm_time
            )
        assert max(speedups, key=speedups.get) == "3D-SW_SW_SW_homo"

    def test_render(self, fig8_quick):
        text = fig8_quick.render()
        assert "paper 1.72x" in text


class TestFig9:
    def test_baseline_dim1_bottleneck(self):
        result = run_fig9(size=256 * MB)
        baseline = result.mean_rates["Baseline"]
        assert baseline[0] > 0.9
        assert baseline[1] < 0.4 and baseline[2] < 0.4

    def test_series_rates_are_fractions(self):
        result = run_fig9(size=256 * MB)
        for series in result.series["Themis+SCF"]:
            for _start, rate in series:
                assert 0.0 <= rate <= 1.0 + 1e-9


class TestFig10:
    def test_quick_sweep_shape(self):
        result = run_fig10(quick=True)
        # 2 topologies x 3 chunk counts x 3 schedulers.
        assert len(result.records) == 18
        assert result.mean_utilization("Themis+SCF", 512) > \
            result.mean_utilization("Themis+SCF", 4)

    def test_missing_key_raises(self):
        result = run_fig10(quick=True)
        with pytest.raises(KeyError):
            result.utilization("3D-SW_SW_SW_hetero", 999, "Baseline")


class TestFig11:
    def test_ordering(self):
        result = run_fig11(quick=True)
        assert (
            result.mean_utilization("Baseline")
            < result.mean_utilization("Themis+FIFO")
            <= result.mean_utilization("Themis+SCF") + 1e-9
        )


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        # One workload x two topologies keeps this integration test snappy.
        workloads = [w for w in fig12_workloads(quick=True) if w.name == "DLRM"]
        return run_fig12(
            quick=True,
            workloads=workloads,
            topology_names=("3D-SW_SW_SW_homo", "2D-SW_SW"),
        )

    def test_reports_complete(self, result):
        assert len(result.reports) == 1 * 2 * 3
        assert result.workload_names() == ["DLRM"]

    def test_speedup_ordering(self, result):
        for topo in result.topology_names():
            themis = result.speedup("DLRM", topo, "Themis+SCF")
            ideal = result.speedup("DLRM", topo, "Ideal")
            assert themis > 1.0
            assert ideal >= themis - 0.02

    def test_render(self, result):
        text = result.render()
        assert "DLRM" in text and "speedup over baseline" in text

    def test_config_matches_paper_accounting(self):
        config = fig12_training_config(quick=True)
        assert config.overlap_dp is False
        assert config.dp_bucket_bytes == pytest.approx(100 * MB)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(quick=True)

    def test_current_platform_near_full_utilization(self, result):
        for workload in ("ResNet-152", "GNMT"):
            assert result.curve(workload, "current-2D").baseline_utilization > 0.9

    def test_nextgen_underutilized(self, result):
        curve = result.curve("GNMT", "3D-SW_SW_SW_homo")
        assert curve.baseline_utilization < 0.45

    def test_curves_monotone(self, result):
        curve = result.curve("ResNet-152", "2D-SW_SW")
        previous = float("inf")
        for utilization in (0.1, 0.3, 0.5, 0.8, 1.0):
            value = curve.runtime_at(utilization)
            assert value < previous
            previous = value

    def test_normalization_is_slowest_at_10pct(self, result):
        norm = result.normalization("GNMT")
        for topo in ("current-2D", "2D-SW_SW", "3D-SW_SW_SW_homo"):
            assert result.curve("GNMT", topo).runtime_at(0.1) <= norm * (1 + 1e-9)

    def test_invalid_utilization(self, result):
        curve = result.curve("GNMT", "2D-SW_SW")
        with pytest.raises(ValueError):
            curve.runtime_at(0.0)
