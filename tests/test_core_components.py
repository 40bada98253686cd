"""Splitter, LatencyModel, and DimLoadTracker unit tests."""

from __future__ import annotations

import pytest

from repro.collectives import CollectiveType, PhaseOp, stage_plan
from repro.core import DimLoadTracker, LatencyModel, Splitter
from repro.errors import ConfigError, ScheduleError
from repro.units import MB


class TestSplitter:
    def test_default_is_paper_64(self):
        assert Splitter().chunks_per_collective == 64

    def test_equal_chunks_sum_exactly(self):
        sizes = Splitter(7).split(100 * MB)
        assert len(sizes) == 7
        assert sum(sizes) == pytest.approx(100 * MB)
        assert all(s == sizes[0] for s in sizes)

    def test_min_chunk_size_caps_count(self):
        splitter = Splitter(64, min_chunk_size=10 * MB)
        assert splitter.chunk_count(100 * MB) == 10
        assert splitter.chunk_count(5 * MB) == 1

    def test_zero_min_chunk_always_splits(self):
        assert Splitter(64).chunk_count(1.0) == 64

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            Splitter(0)
        with pytest.raises(ConfigError):
            Splitter(4, min_chunk_size=-1)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigError):
            Splitter().split(0.0)


class TestLatencyModel:
    def test_chunk_load_is_transfer_only(self, fig5_topology):
        """Scheduler loads exclude the fixed latency term (Sec. 4.4)."""
        model = LatencyModel(fig5_topology)
        load = model.chunk_load(PhaseOp.RS, 64 * MB, 0)
        expected = 48 * MB / fig5_topology.dims[0].bandwidth
        assert load == pytest.approx(expected)

    def test_op_time_adds_fixed(self, asymmetric_3d):
        model = LatencyModel(asymmetric_3d)
        for dim_index in range(3):
            load = model.chunk_load(PhaseOp.RS, 8 * MB, dim_index)
            fixed = model.fixed_latency(PhaseOp.RS, dim_index)
            assert model.op_time(PhaseOp.RS, 8 * MB, dim_index) == pytest.approx(
                load + fixed
            )

    def test_collective_fixed_latency_ar_covers_both_phases(self, asymmetric_3d):
        model = LatencyModel(asymmetric_3d)
        for dim_index in range(3):
            rs = model.fixed_latency(PhaseOp.RS, dim_index)
            ag = model.fixed_latency(PhaseOp.AG, dim_index)
            assert model.collective_fixed_latency(
                CollectiveType.ALL_REDUCE, dim_index
            ) == pytest.approx(rs + ag)

    def test_stage_loads_accumulate_per_dim(self, fig5_topology):
        model = LatencyModel(fig5_topology)
        stages = stage_plan(CollectiveType.ALL_REDUCE, 64 * MB, (0, 1), fig5_topology)
        loads = model.stage_loads(stages)
        unit = 48 * MB / fig5_topology.dims[0].bandwidth
        # dim1: 64MB RS + 64MB AG = 2 units; dim2: 16MB RS + AG at half BW = 1.
        assert loads[0] == pytest.approx(2 * unit)
        assert loads[1] == pytest.approx(1 * unit)

    def test_algorithm_count_mismatch_rejected(self, asymmetric_3d):
        from repro.collectives import RingAlgorithm
        from repro.errors import CollectiveError

        with pytest.raises(CollectiveError):
            LatencyModel(asymmetric_3d, (RingAlgorithm(),))


class TestDimLoadTracker:
    def test_reset_seeds_fixed_latency(self, asymmetric_3d):
        model = LatencyModel(asymmetric_3d)
        tracker = DimLoadTracker(model)
        tracker.reset(CollectiveType.ALL_REDUCE)
        loads = tracker.get_loads()
        for i in range(3):
            assert loads[i] == pytest.approx(
                model.collective_fixed_latency(CollectiveType.ALL_REDUCE, i)
            )

    def test_update_accumulates(self, fig5_topology):
        model = LatencyModel(fig5_topology)
        tracker = DimLoadTracker(model)
        tracker.reset(CollectiveType.ALL_REDUCE)
        tracker.update([1.0, 2.0])
        tracker.update([0.5, 0.0])
        loads = tracker.get_loads()
        assert loads[0] == pytest.approx(1.5)
        assert loads[1] == pytest.approx(2.0)

    def test_update_length_checked(self, fig5_topology):
        tracker = DimLoadTracker(LatencyModel(fig5_topology))
        with pytest.raises(ScheduleError):
            tracker.update([1.0])

    def test_update_rejects_negative(self, fig5_topology):
        tracker = DimLoadTracker(LatencyModel(fig5_topology))
        with pytest.raises(ScheduleError):
            tracker.update([-1.0, 0.0])

    def test_get_loads_returns_copy(self, fig5_topology):
        tracker = DimLoadTracker(LatencyModel(fig5_topology))
        loads = tracker.get_loads()
        loads[0] = 1e9
        assert tracker.get_loads()[0] == 0.0

    def test_gap_and_min_dim(self, fig5_topology):
        tracker = DimLoadTracker(LatencyModel(fig5_topology))
        tracker.update([3.0, 1.0])
        assert tracker.load_gap == pytest.approx(2.0)
        assert tracker.min_load_dim == 1
        assert tracker.max_load == pytest.approx(3.0)
        assert tracker.min_load == pytest.approx(1.0)

    def test_ascending_ties_prefer_baseline_order(self, asymmetric_3d):
        tracker = DimLoadTracker(LatencyModel(asymmetric_3d))
        # All-equal loads.
        assert tracker.ascending_order() == (0, 1, 2)

    def test_descending_ties_prefer_baseline_ag_order(self, asymmetric_3d):
        tracker = DimLoadTracker(LatencyModel(asymmetric_3d))
        assert tracker.descending_order() == (2, 1, 0)

    def test_orders_reflect_loads(self, asymmetric_3d):
        tracker = DimLoadTracker(LatencyModel(asymmetric_3d))
        tracker.update([5.0, 1.0, 3.0])
        assert tracker.ascending_order() == (1, 2, 0)
        assert tracker.descending_order() == (0, 2, 1)


class TestIndexedReadyQueueIteration:
    """Regression: ``__iter__`` dedups stale heap entries on the stable op
    key (``op.key``), never on the interpreter address, so diagnostics that
    iterate the queue see each live op exactly once in a stable order."""

    @staticmethod
    def _op(seq, owner="a", priority=0):
        from types import SimpleNamespace

        return SimpleNamespace(
            key=(seq, 0, 0), owner=owner, priority=priority, queued=False
        )

    @staticmethod
    def _queue():
        from repro.core.ready_queue import ReadyQueue

        return ReadyQueue(lambda op: (op.priority, op.key))

    def test_stale_entries_collapse(self):
        queue = self._queue()
        op = self._op(1)
        queue.push(op, True)
        queue.discard(op)  # leaves a dead heap entry behind
        queue.push(op, True)  # re-admission: second entry, same op
        assert len(queue) == 1
        assert [o.key for o in queue] == [(1, 0, 0)]

    def test_iteration_includes_parked_ops(self):
        queue = self._queue()
        eligible, parked = self._op(1), self._op(2)
        queue.push(eligible, True)
        queue.push(parked, False)
        assert sorted(o.key for o in queue) == [(1, 0, 0), (2, 0, 0)]
        assert len(queue) == 2
