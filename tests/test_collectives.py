"""Collective algorithm cost models and stage math."""

from __future__ import annotations

import math

import pytest

from repro.collectives import (
    CollectiveRequest,
    CollectiveType,
    DirectAlgorithm,
    HalvingDoublingAlgorithm,
    PhaseOp,
    RingAlgorithm,
    TreeAlgorithm,
    algorithm_for_dimension,
    algorithms_for_topology,
    get_algorithm,
    invariant_bytes_per_npu,
    phase_ops,
    stage_bytes_fraction,
    stage_plan,
    validate_dim_order,
)
from repro.errors import CollectiveError, ScheduleError
from repro.topology import dimension
from repro.units import MB


class TestCollectiveType:
    def test_aliases(self):
        assert CollectiveType.from_name("all-reduce") is CollectiveType.ALL_REDUCE
        assert CollectiveType.from_name("AR") is CollectiveType.ALL_REDUCE
        assert CollectiveType.from_name("rs") is CollectiveType.REDUCE_SCATTER
        assert CollectiveType.from_name("AllGather") is CollectiveType.ALL_GATHER
        assert CollectiveType.from_name("a2a") is CollectiveType.ALL_TO_ALL

    def test_unknown_name(self):
        with pytest.raises(CollectiveError):
            CollectiveType.from_name("broadcast")

    def test_two_phase_flag(self):
        assert CollectiveType.ALL_REDUCE.is_two_phase
        assert not CollectiveType.REDUCE_SCATTER.is_two_phase


class TestCollectiveRequest:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(CollectiveError):
            CollectiveRequest(CollectiveType.ALL_REDUCE, 0.0)


class TestStepCounts:
    """Step counts drive the fixed latency A_K (Sec. 4.4)."""

    def test_ring_steps(self):
        algo = RingAlgorithm()
        assert algo.steps(PhaseOp.RS, 4) == 3
        assert algo.steps(PhaseOp.AG, 4) == 3
        assert algo.steps(PhaseOp.A2A, 4) == 3

    def test_direct_steps(self):
        algo = DirectAlgorithm()
        for op in PhaseOp:
            assert algo.steps(op, 8) == 1

    def test_halving_doubling_steps(self):
        algo = HalvingDoublingAlgorithm()
        assert algo.steps(PhaseOp.RS, 8) == 3
        assert algo.steps(PhaseOp.AG, 16) == 4
        assert algo.steps(PhaseOp.A2A, 8) == 7

    def test_halving_doubling_requires_power_of_two(self):
        algo = HalvingDoublingAlgorithm()
        with pytest.raises(CollectiveError):
            algo.steps(PhaseOp.RS, 6)

    def test_tree_steps(self):
        algo = TreeAlgorithm()
        assert algo.steps(PhaseOp.RS, 8) == 3
        assert algo.steps(PhaseOp.RS, 5) == 3  # ceil(log2 5)

    def test_min_peers_enforced(self):
        for algo in (RingAlgorithm(), DirectAlgorithm(), HalvingDoublingAlgorithm()):
            with pytest.raises(CollectiveError):
                algo.steps(PhaseOp.RS, 1)


class TestByteVolumes:
    """Bandwidth-optimal algorithms all send stage_size x (P-1)/P."""

    @pytest.mark.parametrize(
        "algo", [RingAlgorithm(), DirectAlgorithm(), HalvingDoublingAlgorithm()]
    )
    def test_bw_optimal_bytes(self, algo):
        assert algo.bytes_per_npu(PhaseOp.RS, 64 * MB, 4) == pytest.approx(48 * MB)
        assert algo.bytes_per_npu(PhaseOp.AG, 64 * MB, 4) == pytest.approx(48 * MB)

    def test_tree_bytes_are_suboptimal(self):
        tree = TreeAlgorithm()
        ring = RingAlgorithm()
        assert tree.bytes_per_npu(PhaseOp.RS, 64 * MB, 8) > ring.bytes_per_npu(
            PhaseOp.RS, 64 * MB, 8
        )

    def test_negative_stage_size_rejected(self):
        with pytest.raises(CollectiveError):
            RingAlgorithm().bytes_per_npu(PhaseOp.RS, -1.0, 4)


class TestOpTime:
    def test_fig5_unit_time(self, fig5_topology):
        """64 MB RS and 16 MB->64 MB AG cost the same unit on dim1."""
        algo = RingAlgorithm()
        dim1 = fig5_topology.dims[0]
        rs = algo.op_time(PhaseOp.RS, 64 * MB, dim1)
        ag = algo.op_time(PhaseOp.AG, 64 * MB, dim1)
        assert rs == pytest.approx(ag)

    def test_dim2_half_bw_doubles_time(self, fig5_topology):
        algo = RingAlgorithm()
        t1 = algo.op_time(PhaseOp.RS, 64 * MB, fig5_topology.dims[0])
        t2 = algo.op_time(PhaseOp.RS, 64 * MB, fig5_topology.dims[1])
        assert t2 == pytest.approx(2 * t1)

    def test_fixed_latency_term(self):
        dim = dimension("ring", 4, 100.0, latency_ns=500)
        algo = RingAlgorithm()
        assert algo.fixed_latency(PhaseOp.RS, dim) == pytest.approx(3 * 500e-9)


class TestRegistry:
    def test_table1_mapping(self):
        assert algorithm_for_dimension(dimension("ring", 4, 1.0)).name == "Ring"
        assert algorithm_for_dimension(dimension("fc", 4, 1.0)).name == "Direct"
        assert (
            algorithm_for_dimension(dimension("sw", 4, 1.0)).name == "HalvingDoubling"
        )

    def test_get_algorithm_unknown(self):
        with pytest.raises(CollectiveError):
            get_algorithm("Quantum")

    def test_topology_resolution(self, asymmetric_3d):
        algos = algorithms_for_topology(asymmetric_3d)
        assert [a.name for a in algos] == ["Ring", "Direct", "HalvingDoubling"]

    def test_overrides(self, asymmetric_3d):
        algos = algorithms_for_topology(asymmetric_3d, overrides={0: "Tree"})
        assert algos[0].name == "Tree"
        assert algos[1].name == "Direct"

    def test_override_out_of_range(self, asymmetric_3d):
        with pytest.raises(CollectiveError):
            algorithms_for_topology(asymmetric_3d, overrides={7: "Ring"})


class TestStagePlan:
    def test_ar_stage_sizes_fig5(self, fig5_topology):
        """Fig. 5 labels: RS 64 -> RS 16 -> AG 16 -> AG 64 (baseline order)."""
        stages = stage_plan(
            CollectiveType.ALL_REDUCE, 64 * MB, (0, 1), fig5_topology
        )
        sizes = [s.stage_size / MB for s in stages]
        assert sizes == pytest.approx([64, 16, 16, 64])
        ops = [s.op for s in stages]
        assert ops == [PhaseOp.RS, PhaseOp.RS, PhaseOp.AG, PhaseOp.AG]
        dims = [s.dim_index for s in stages]
        assert dims == [0, 1, 1, 0]

    def test_ar_reversed_order(self, fig5_topology):
        stages = stage_plan(
            CollectiveType.ALL_REDUCE, 64 * MB, (1, 0), fig5_topology
        )
        sizes = [s.stage_size / MB for s in stages]
        assert sizes == pytest.approx([64, 16, 16, 64])
        dims = [s.dim_index for s in stages]
        assert dims == [1, 0, 0, 1]

    def test_ar_stage_sizes_palindromic(self, asymmetric_3d):
        stages = stage_plan(
            CollectiveType.ALL_REDUCE, 128 * MB, (2, 0, 1), asymmetric_3d
        )
        sizes = [s.stage_size for s in stages]
        assert sizes[:3] == pytest.approx(sizes[::-1][:3])

    def test_rs_shrinks_resident(self, asymmetric_3d):
        stages = stage_plan(
            CollectiveType.REDUCE_SCATTER, 64 * MB, (0, 1, 2), asymmetric_3d
        )
        assert [s.op for s in stages] == [PhaseOp.RS] * 3
        assert stages[0].stage_size == pytest.approx(64 * MB)
        assert stages[1].stage_size == pytest.approx(16 * MB)
        assert stages[2].stage_size == pytest.approx(8 * MB)

    def test_ag_grows_resident(self, asymmetric_3d):
        stages = stage_plan(
            CollectiveType.ALL_GATHER, 1 * MB, (2, 1, 0), asymmetric_3d
        )
        assert stages[0].stage_size == pytest.approx(8 * MB)
        assert stages[1].stage_size == pytest.approx(16 * MB)
        assert stages[2].stage_size == pytest.approx(64 * MB)

    def test_a2a_constant_resident(self, asymmetric_3d):
        stages = stage_plan(
            CollectiveType.ALL_TO_ALL, 8 * MB, (0, 1, 2), asymmetric_3d
        )
        assert all(s.stage_size == pytest.approx(8 * MB) for s in stages)

    def test_rejects_bad_order(self, asymmetric_3d):
        with pytest.raises(ScheduleError):
            stage_plan(CollectiveType.ALL_REDUCE, 1.0, (0, 0, 1), asymmetric_3d)
        with pytest.raises(ScheduleError):
            stage_plan(CollectiveType.ALL_REDUCE, 1.0, (0, 1), asymmetric_3d)

    def test_rejects_nonpositive_size(self, asymmetric_3d):
        with pytest.raises(CollectiveError):
            stage_plan(CollectiveType.ALL_REDUCE, 0.0, (0, 1, 2), asymmetric_3d)

    def test_phase_ops_shapes(self):
        assert phase_ops(CollectiveType.ALL_REDUCE, 3) == [PhaseOp.RS] * 3 + [
            PhaseOp.AG
        ] * 3
        assert phase_ops(CollectiveType.ALL_GATHER, 2) == [PhaseOp.AG] * 2

    def test_validate_dim_order(self):
        assert validate_dim_order([2, 0, 1], 3) == (2, 0, 1)
        with pytest.raises(ScheduleError):
            validate_dim_order([1, 2], 3)


class TestInvariantBytes:
    """The telescoping lemma behind the paper's Ideal estimator."""

    def test_rs_invariant_value(self, asymmetric_3d):
        total_p = asymmetric_3d.npus
        expected = 64 * MB * (1 - 1 / total_p)
        assert invariant_bytes_per_npu(
            CollectiveType.REDUCE_SCATTER, 64 * MB, asymmetric_3d
        ) == pytest.approx(expected)

    def test_ar_is_double_rs(self, asymmetric_3d):
        rs = invariant_bytes_per_npu(
            CollectiveType.REDUCE_SCATTER, 64 * MB, asymmetric_3d
        )
        ar = invariant_bytes_per_npu(
            CollectiveType.ALL_REDUCE, 64 * MB, asymmetric_3d
        )
        assert ar == pytest.approx(2 * rs)

    def test_order_invariance_exhaustive(self, asymmetric_3d):
        """Sum of per-dim fractions is identical for every dimension order."""
        import itertools

        totals = []
        for order in itertools.permutations(range(3)):
            fractions = stage_bytes_fraction(
                CollectiveType.REDUCE_SCATTER, order, asymmetric_3d
            )
            totals.append(sum(fractions.values()))
        for total in totals:
            assert total == pytest.approx(totals[0])
        assert totals[0] == pytest.approx(1 - 1 / asymmetric_3d.npus)

    def test_a2a_bytes(self, small_2d):
        expected = 8 * MB * ((1 - 1 / 2) + (1 - 1 / 2))
        assert invariant_bytes_per_npu(
            CollectiveType.ALL_TO_ALL, 8 * MB, small_2d
        ) == pytest.approx(expected)

    def test_fraction_keys_cover_all_dims(self, asymmetric_3d):
        fractions = stage_bytes_fraction(
            CollectiveType.ALL_REDUCE, (0, 1, 2), asymmetric_3d
        )
        assert set(fractions) == {0, 1, 2}
