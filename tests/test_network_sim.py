"""End-to-end network simulator tests, including the Fig. 5 golden case."""

from __future__ import annotations

import gc
import math

import pytest

from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import SchedulerFactory, Splitter
from repro.errors import SimulationError
from repro.sim import (
    EventQueue,
    FusionConfig,
    IdealNetwork,
    NetworkSimulator,
    bw_utilization,
)
from repro.units import MB


def run_single(
    topology,
    kind="themis",
    policy="SCF",
    chunks=4,
    size=256 * MB,
    ctype=CollectiveType.ALL_REDUCE,
    fusion=FusionConfig(enabled=False),
    **kwargs,
):
    sim = NetworkSimulator(
        topology,
        SchedulerFactory(kind, splitter=Splitter(chunks)),
        policy=policy,
        fusion=fusion,
        **kwargs,
    )
    sim.submit(CollectiveRequest(ctype, size))
    return sim.run()


class TestFig5Golden:
    """The paper's worked example: baseline 8 units vs Themis 7 units."""

    def unit(self, topo):
        return 48 * MB / topo.dims[0].bandwidth

    def test_baseline_takes_8_units(self, fig5_topology):
        result = run_single(fig5_topology, "baseline", "FIFO")
        assert result.makespan / self.unit(fig5_topology) == pytest.approx(8.0)

    def test_themis_scf_takes_7_units(self, fig5_topology):
        result = run_single(fig5_topology, "themis", "SCF")
        assert result.makespan / self.unit(fig5_topology) == pytest.approx(7.0)

    def test_themis_beats_baseline(self, fig5_topology):
        baseline = run_single(fig5_topology, "baseline", "FIFO")
        themis = run_single(fig5_topology, "themis", "SCF")
        assert themis.makespan < baseline.makespan

    def test_dim1_fully_busy_in_baseline(self, fig5_topology):
        """In the baseline pipeline dim1 never idles (it is the bottleneck)."""
        result = run_single(fig5_topology, "baseline", "FIFO")
        assert result.dim_transfer_seconds[0] == pytest.approx(result.makespan)

    def test_baseline_dim2_half_utilized(self, fig5_topology):
        result = run_single(fig5_topology, "baseline", "FIFO")
        report = bw_utilization(result)
        assert report.per_dim[0] == pytest.approx(1.0)
        assert report.per_dim[1] == pytest.approx(0.5)

    def test_op_count(self, fig5_topology):
        result = run_single(fig5_topology, "themis", "SCF")
        assert len(result.records) == 4 * 4  # 4 chunks x 4 stages


class TestExecutionBasics:
    def test_all_stage_dependencies_respected(self, asymmetric_3d):
        result = run_single(asymmetric_3d, "themis", "SCF", chunks=8)
        by_chunk: dict[int, list] = {}
        for record in result.records:
            by_chunk.setdefault(record.chunk_id, []).append(record)
        for records in by_chunk.values():
            records.sort(key=lambda r: r.stage_index)
            for prev, nxt in zip(records, records[1:]):
                assert nxt.start_time >= prev.end_time - 1e-12

    def test_wire_occupancy_never_overlaps(self, asymmetric_3d):
        """Transfers serialize on each dimension's wire; only the fixed
        latency tail (the pipeline shadow) may overlap the next op."""
        result = run_single(asymmetric_3d, "themis", "SCF", chunks=8)
        for dim in range(asymmetric_3d.ndims):
            ops = sorted(
                (r for r in result.records if r.dim_index == dim),
                key=lambda r: r.start_time,
            )
            for prev, nxt in zip(ops, ops[1:]):
                same_batch = prev.start_time == nxt.start_time
                wire_free = prev.start_time + prev.transfer_time
                assert same_batch or nxt.start_time >= wire_free - 1e-12

    def test_op_end_includes_fixed_latency(self, asymmetric_3d):
        result = run_single(asymmetric_3d, "baseline", "FIFO", chunks=2)
        for record in result.records:
            assert record.end_time == pytest.approx(
                record.start_time + record.fixed_time + record.transfer_time
            )

    def test_bytes_conservation(self, asymmetric_3d):
        """Total bytes on the wire equal the schedule's invariant volume."""
        from repro.collectives import invariant_bytes_per_npu

        result = run_single(asymmetric_3d, "baseline", "FIFO", chunks=8)
        expected = invariant_bytes_per_npu(
            CollectiveType.ALL_REDUCE, 256 * MB, asymmetric_3d
        )
        assert sum(result.dim_bytes) == pytest.approx(expected)

    def test_all_gather_bytes_conservation(self, asymmetric_3d):
        """An AG's size is the pre-gather shard: the wire carries what the
        Ideal charges, ``size x (npus - 1)``, under Themis's mixed orders."""
        from repro.collectives import invariant_bytes_per_npu

        result = run_single(
            asymmetric_3d, chunks=8, size=4 * MB, ctype=CollectiveType.ALL_GATHER
        )
        expected = invariant_bytes_per_npu(
            CollectiveType.ALL_GATHER, 4 * MB, asymmetric_3d
        )
        assert sum(result.dim_bytes) == pytest.approx(expected)

    def test_themis_bytes_exceed_invariant_when_rebalancing(self, fig5_topology):
        """Dynamic orders trade extra bytes on fat dims for balance.

        For All-Reduce the per-NPU byte volume is schedule-invariant, so
        even Themis moves exactly the invariant volume.
        """
        from repro.collectives import invariant_bytes_per_npu

        result = run_single(fig5_topology, "themis", "SCF")
        expected = invariant_bytes_per_npu(
            CollectiveType.ALL_REDUCE, 256 * MB, fig5_topology
        )
        assert sum(result.dim_bytes) == pytest.approx(expected)

    def test_collective_result_filled(self, asymmetric_3d):
        result = run_single(asymmetric_3d)
        assert len(result.collectives) == 1
        summary = result.collectives[0]
        assert summary.done
        assert summary.duration == pytest.approx(result.makespan)
        assert summary.plan is not None

    def test_no_submission_is_error(self, asymmetric_3d):
        sim = NetworkSimulator(asymmetric_3d)
        with pytest.raises(SimulationError):
            sim.result()


class TestConcurrentCollectives:
    def test_two_collectives_share_channels(self, asymmetric_3d):
        sim = NetworkSimulator(
            asymmetric_3d,
            SchedulerFactory("themis", splitter=Splitter(4)),
            policy="SCF",
        )
        first = sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        second = sim.submit(
            CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB), at_time=1e-4
        )
        sim.run()
        assert first.done and second.done
        assert second.completion_time >= first.issue_time

    def test_sequential_collectives_give_comm_active_gaps(self, asymmetric_3d):
        sim = NetworkSimulator(
            asymmetric_3d, SchedulerFactory("themis", splitter=Splitter(2))
        )
        first = sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        sim.run()  # finish the first completely
        gap_start = sim.engine.now
        sim.submit(
            CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB),
            at_time=gap_start + 1.0,
        )
        result = sim.run()
        # Active time excludes the idle gap between the two collectives.
        assert result.comm_active_seconds < result.makespan
        assert result.comm_active_seconds == pytest.approx(
            sum(iv.length for iv in result.comm_active_intervals)
        )
        assert first.done

    def test_completion_callback_invoked(self, asymmetric_3d):
        sim = NetworkSimulator(asymmetric_3d)
        seen = []
        sim.submit(
            CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB),
            on_complete=lambda res: seen.append(res.completion_time),
        )
        sim.run()
        assert len(seen) == 1
        assert seen[0] == pytest.approx(sim.engine.now)


class TestMidRunSnapshots:
    def test_snapshot_skips_unfinished_collectives(self, asymmetric_3d):
        """A snapshot with a collective still in flight must not propagate
        the in-flight NaN completion time into makespan."""
        sim = NetworkSimulator(
            asymmetric_3d, SchedulerFactory("themis", splitter=Splitter(2))
        )
        first = sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        sim.run()  # first completes
        finish = sim.engine.now
        second = sim.submit(
            CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB),
            at_time=finish + 1e-4,
        )
        sim.engine.run_until(finish + 1e-4 + 1e-9)  # second now in flight
        snapshot = sim.result()
        assert not second.done
        assert snapshot.pending_collectives == 1
        assert len(snapshot.completed_collectives) == 1
        assert snapshot.completion_time == pytest.approx(first.completion_time)
        assert not math.isnan(snapshot.makespan)

    def test_snapshot_with_nothing_finished_raises(self, asymmetric_3d):
        sim = NetworkSimulator(asymmetric_3d)
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        snapshot = sim.result()  # nothing has run yet
        with pytest.raises(SimulationError, match="no collective has completed"):
            snapshot.completion_time

    def test_snapshot_is_non_destructive(self, asymmetric_3d):
        """Snapshotting mid-run must not corrupt the remaining accounting."""

        def build():
            sim = NetworkSimulator(
                asymmetric_3d, SchedulerFactory("themis", splitter=Splitter(4))
            )
            sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
            return sim

        clean = build().run()
        sim = build()
        for _ in range(5):  # stop mid-flight
            sim.engine.step()
        sim.result()  # mid-run snapshot
        final = sim.run()
        assert final.comm_active_seconds == pytest.approx(
            clean.comm_active_seconds
        )
        final_activity = sum(
            iv.length for ivs in final.dim_activity for iv in ivs
        )
        clean_activity = sum(
            iv.length for ivs in clean.dim_activity for iv in ivs
        )
        assert final_activity == pytest.approx(clean_activity)


class TestSubmissionValidation:
    def test_submit_past_time_raises(self, asymmetric_3d):
        sim = NetworkSimulator(asymmetric_3d)
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        sim.run()
        assert sim.engine.now > 0
        with pytest.raises(SimulationError, match="past time"):
            sim.submit(
                CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB, tag="late"),
                at_time=0.0,
            )

    def test_past_time_error_names_the_request(self, asymmetric_3d):
        sim = NetworkSimulator(asymmetric_3d)
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        sim.run()
        with pytest.raises(SimulationError, match="tag='late'"):
            sim.submit(
                CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB, tag="late"),
                at_time=0.0,
            )

    def test_ideal_submit_past_time_raises(self, asymmetric_3d):
        net = IdealNetwork(asymmetric_3d)
        net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        net.run()
        with pytest.raises(SimulationError, match="past time"):
            net.submit(
                CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB),
                at_time=0.0,
            )


class TestCommActiveAccounting:
    def test_overlapping_collectives_merge(self, asymmetric_3d):
        """Two collectives in flight together yield one active interval."""
        sim = NetworkSimulator(
            asymmetric_3d, SchedulerFactory("themis", splitter=Splitter(2))
        )
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        result = sim.run()
        assert len(result.comm_active_intervals) == 1
        assert result.comm_active_seconds == pytest.approx(result.makespan)

    def test_abutting_collectives_merge(self, asymmetric_3d):
        """A collective issued exactly at another's completion instant keeps
        the network continuously active — one merged interval."""
        sim = NetworkSimulator(
            asymmetric_3d, SchedulerFactory("themis", splitter=Splitter(2))
        )
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        sim.run()
        boundary = sim.engine.now
        sim.submit(
            CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB),
            at_time=boundary,
        )
        result = sim.run()
        assert len(result.comm_active_intervals) == 1
        assert result.comm_active_seconds == pytest.approx(result.makespan)

    def test_per_owner_intervals(self, asymmetric_3d):
        sim = NetworkSimulator(
            asymmetric_3d, SchedulerFactory("themis", splitter=Splitter(2))
        )
        a = sim.submit(
            CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB, owner="jobA")
        )
        b = sim.submit(
            CollectiveRequest(CollectiveType.ALL_REDUCE, 128 * MB, owner="jobB")
        )
        result = sim.run()
        assert set(result.comm_active_by_owner) == {"jobA", "jobB"}
        assert result.comm_active_seconds_for("jobA") == pytest.approx(
            a.duration
        )
        assert result.comm_active_seconds_for("jobB") == pytest.approx(
            b.duration
        )
        for owner in ("jobA", "jobB"):
            assert (
                result.comm_active_seconds_for(owner)
                <= result.comm_active_seconds + 1e-12
            )

    def test_single_tenant_uses_empty_owner(self, asymmetric_3d):
        result = run_single(asymmetric_3d)
        assert set(result.comm_active_by_owner) == {""}
        assert result.comm_active_seconds_for("") == pytest.approx(
            result.comm_active_seconds
        )


class TestSubTopologyCollectives:
    def test_last_dim_only(self, asymmetric_3d):
        """A collective restricted to dim3 only touches dim3's channel."""
        sim = NetworkSimulator(asymmetric_3d, SchedulerFactory("themis"))
        sim.submit(
            CollectiveRequest(
                CollectiveType.ALL_REDUCE, 64 * MB, dim_indices=(2,)
            )
        )
        result = sim.run()
        assert result.dim_bytes[0] == 0.0
        assert result.dim_bytes[1] == 0.0
        assert result.dim_bytes[2] > 0.0

    def test_two_of_three_dims(self, asymmetric_3d):
        sim = NetworkSimulator(asymmetric_3d, SchedulerFactory("themis"))
        sim.submit(
            CollectiveRequest(
                CollectiveType.ALL_REDUCE, 64 * MB, dim_indices=(0, 1)
            )
        )
        result = sim.run()
        assert result.dim_bytes[2] == 0.0
        assert result.dim_bytes[0] > 0 and result.dim_bytes[1] > 0

    def test_subset_invariant_bytes(self, asymmetric_3d):
        from repro.collectives import invariant_bytes_per_npu

        sub = asymmetric_3d.subset([0, 1])
        sim = NetworkSimulator(asymmetric_3d, SchedulerFactory("baseline"))
        sim.submit(
            CollectiveRequest(
                CollectiveType.ALL_REDUCE, 64 * MB, dim_indices=(0, 1)
            )
        )
        result = sim.run()
        expected = invariant_bytes_per_npu(CollectiveType.ALL_REDUCE, 64 * MB, sub)
        assert sum(result.dim_bytes) == pytest.approx(expected)


class TestSharedEngine:
    def test_external_engine_clock_shared(self, asymmetric_3d):
        engine = EventQueue()
        sim = NetworkSimulator(asymmetric_3d, engine=engine)
        marks = []
        engine.schedule(0.0, lambda: marks.append(engine.now))
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        engine.run()
        result = sim.result()
        assert marks == [0.0]
        assert result.makespan > 0


class TestReferenceCycles:
    def test_finished_batches_leave_no_cyclic_garbage(self, asymmetric_3d):
        """Handles drop their callbacks once done, so no running batch stays
        in a cycle with its events for the cyclic GC to find."""
        from repro.sim.engine import EventHandle
        from repro.sim.executor import _RunningBatch

        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = run_single(asymmetric_3d, chunks=8, fusion=FusionConfig())
            gc.collect()
            leaked = [
                obj
                for obj in gc.garbage
                if isinstance(obj, (EventHandle, _RunningBatch))
            ]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert result.makespan > 0
        assert leaked == []


class TestIdealNetwork:
    def test_single_collective_time(self, asymmetric_3d):
        from repro.core import IdealEstimator

        net = IdealNetwork(asymmetric_3d)
        res = net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        net.run()
        expected = IdealEstimator().collective_time(
            CollectiveType.ALL_REDUCE, 64 * MB, asymmetric_3d
        )
        assert res.duration == pytest.approx(expected)

    def test_ideal_not_slower_than_simulated(self, homo_3d):
        net = IdealNetwork(homo_3d)
        res = net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 256 * MB))
        net.run()
        sim_result = run_single(
            homo_3d, "themis", "SCF", chunks=64, fusion=FusionConfig()
        )
        assert res.duration <= sim_result.makespan * (1 + 1e-9)

    def test_fifo_serialization(self, asymmetric_3d):
        net = IdealNetwork(asymmetric_3d)
        first = net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        second = net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        net.run()
        assert second.completion_time == pytest.approx(2 * first.duration)

    def test_subset_dims(self, asymmetric_3d):
        net = IdealNetwork(asymmetric_3d)
        res = net.submit(
            CollectiveRequest(CollectiveType.ALL_GATHER, 8 * MB, dim_indices=(2,))
        )
        net.run()
        assert res.done and res.duration > 0


class TestCollectiveResultDone:
    """Regression: ``done`` is an explicit NaN check, so a collective that
    legitimately completes at t=0.0 counts as done and an unfinished one
    (``completion_time`` NaN) never does."""

    @staticmethod
    def _result(completion_time):
        from repro.sim.network import CollectiveResult

        return CollectiveResult(
            request=CollectiveRequest(CollectiveType.ALL_REDUCE, MB),
            plan=None,
            issue_time=0.0,
            completion_time=completion_time,
        )

    def test_nan_is_not_done(self):
        pending = self._result(float("nan"))
        assert not pending.done
        assert math.isnan(pending.duration)

    def test_zero_completion_time_is_done(self):
        assert self._result(0.0).done

    def test_finished_run_marks_done(self, fig5_topology):
        result = run_single(fig5_topology, chunks=2, size=8 * MB)
        assert all(c.done for c in result.collectives)
