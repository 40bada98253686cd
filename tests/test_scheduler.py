"""Baseline and Themis scheduler tests (Algorithm 1 semantics)."""

from __future__ import annotations

import math

import pytest

from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import (
    BaselineScheduler,
    LatencyModel,
    SchedulerFactory,
    Splitter,
    ThemisScheduler,
    baseline_dim_order,
    validate_collective_plan,
)
from repro.errors import ScheduleError
from repro.units import MB


def make_request(ctype=CollectiveType.ALL_REDUCE, size=256 * MB):
    return CollectiveRequest(ctype, size)


class TestBaselineOrder:
    def test_rs_ascends(self):
        assert baseline_dim_order(CollectiveType.REDUCE_SCATTER, 3) == (0, 1, 2)
        assert baseline_dim_order(CollectiveType.ALL_REDUCE, 4) == (0, 1, 2, 3)

    def test_ag_descends(self):
        assert baseline_dim_order(CollectiveType.ALL_GATHER, 3) == (2, 1, 0)


class TestBaselineScheduler:
    def test_constant_schedule_for_all_chunks(self, fig5_topology):
        scheduler = BaselineScheduler(Splitter(4))
        plan = scheduler.plan(make_request(), fig5_topology)
        assert plan.nchunks == 4
        assert plan.dim_orders() == [(0, 1)] * 4
        validate_collective_plan(plan)

    def test_scheduler_name(self, fig5_topology):
        plan = BaselineScheduler().plan(make_request(), fig5_topology)
        assert plan.scheduler_name == "Baseline"

    def test_ag_collective_uses_reversed_order(self, asymmetric_3d):
        scheduler = BaselineScheduler(Splitter(2))
        plan = scheduler.plan(
            make_request(CollectiveType.ALL_GATHER, 8 * MB), asymmetric_3d
        )
        assert plan.dim_orders() == [(2, 1, 0)] * 2

    def test_total_ops(self, asymmetric_3d):
        plan = BaselineScheduler(Splitter(4)).plan(make_request(), asymmetric_3d)
        assert plan.total_ops == 4 * 6  # 4 chunks x 2D stages for AR on 3 dims


class TestThemisScheduler:
    def test_fig7_chunk_orders(self, fig5_topology):
        """The paper's Fig. 7 walk-through: chunk orders B, d2-first, B, B."""
        scheduler = ThemisScheduler(Splitter(4))
        plan = scheduler.plan(make_request(), fig5_topology)
        assert plan.dim_orders() == [(0, 1), (1, 0), (0, 1), (0, 1)]

    def test_makespan_bound_from_loads(self, fig5_topology):
        """Final tracked loads for Fig. 7: dim1 = 6.5 units, dim2 = 7 units."""
        scheduler = ThemisScheduler(Splitter(4))
        model = LatencyModel(fig5_topology)
        request = make_request()
        chunk_sizes = scheduler.splitter.split(request.size)
        orders = scheduler.chunk_orders(request, chunk_sizes, model)
        from repro.collectives import stage_plan

        unit = 48 * MB / fig5_topology.dims[0].bandwidth
        loads = [0.0, 0.0]
        for size, order in zip(chunk_sizes, orders):
            stages = stage_plan(request.ctype, size, order, fig5_topology)
            for dim, load in enumerate(model.stage_loads(stages)):
                loads[dim] += load
        assert loads[0] / unit == pytest.approx(6.5)
        assert loads[1] / unit == pytest.approx(7.0)

    def test_reverts_to_baseline_when_gap_small(self, fig5_topology):
        """First chunk always uses the baseline order (loads are equal)."""
        plan = ThemisScheduler(Splitter(8)).plan(make_request(), fig5_topology)
        assert plan.dim_orders()[0] == (0, 1)

    def test_threshold_none_disables_guard(self, fig5_topology):
        """Without the guard, even the first chunk sorts by (tied) loads."""
        scheduler = ThemisScheduler(Splitter(4), threshold_divisor=None)
        plan = scheduler.plan(make_request(), fig5_topology)
        # Ties break to baseline order anyway; chunk 2 must diverge.
        assert plan.dim_orders()[1] == (1, 0)

    def test_invalid_threshold_divisor(self):
        with pytest.raises(ScheduleError):
            ThemisScheduler(threshold_divisor=0.0)

    def test_ag_only_descending(self, fig5_topology):
        """Standalone AG schedules most-loaded dimension first."""
        scheduler = ThemisScheduler(Splitter(4), threshold_divisor=None)
        plan = scheduler.plan(
            make_request(CollectiveType.ALL_GATHER, 64 * MB), fig5_topology
        )
        # Chunk 1 ties -> baseline AG order (1, 0); later chunks adapt.
        assert plan.dim_orders()[0] == (1, 0)
        validate_collective_plan(plan)

    def test_plan_valid_on_every_paper_topology(self):
        from repro.topology import paper_topologies

        for topo in paper_topologies():
            plan = ThemisScheduler(Splitter(16)).plan(make_request(), topo)
            validate_collective_plan(plan)
            for order in plan.dim_orders():
                assert sorted(order) == list(range(topo.ndims))

    def test_rs_only_plan(self, asymmetric_3d):
        plan = ThemisScheduler(Splitter(8)).plan(
            make_request(CollectiveType.REDUCE_SCATTER, 64 * MB), asymmetric_3d
        )
        assert plan.total_ops == 8 * 3
        validate_collective_plan(plan)

    def test_a2a_plan(self, asymmetric_3d):
        plan = ThemisScheduler(Splitter(8)).plan(
            make_request(CollectiveType.ALL_TO_ALL, 64 * MB), asymmetric_3d
        )
        validate_collective_plan(plan)

    def test_schedules_balance_loads_better_than_baseline(self, homo_3d):
        """Themis's tracked load gap must not exceed the baseline's."""
        from repro.collectives import stage_plan

        request = make_request(size=512 * MB)
        model = LatencyModel(homo_3d)

        def final_gap(scheduler):
            sizes = scheduler.splitter.split(request.size)
            orders = scheduler.chunk_orders(request, sizes, model)
            loads = [0.0] * homo_3d.ndims
            for size, order in zip(sizes, orders):
                stages = stage_plan(request.ctype, size, order, homo_3d)
                for dim, load in enumerate(model.stage_loads(stages)):
                    loads[dim] += load
            return max(loads) - min(loads)

        gap_baseline = final_gap(BaselineScheduler(Splitter(64)))
        gap_themis = final_gap(ThemisScheduler(Splitter(64)))
        assert gap_themis < gap_baseline


class TestSchedulerFactory:
    def test_kinds(self):
        assert SchedulerFactory("baseline").create().name == "Baseline"
        assert SchedulerFactory("themis").create().name == "Themis"

    def test_unknown_kind(self):
        with pytest.raises(ScheduleError):
            SchedulerFactory("random")

    def test_fresh_instances(self):
        factory = SchedulerFactory("themis")
        assert factory.create() is not factory.create()

    def test_splitter_propagates(self, fig5_topology):
        factory = SchedulerFactory("themis", splitter=Splitter(4))
        plan = factory.create().plan(make_request(), fig5_topology)
        assert plan.nchunks == 4


class TestPlanDerivesEachShapeOnce:
    """A plan-cache miss derives each distinct (chunk size, order) once.

    Equal chunks of a D-dimensional network have at most D! orders.  Each
    pass (Themis's load pass, then the chunk-plan build) calls
    ``stage_plan`` at most once per distinct (size, order), not once per
    chunk; under the overshoot guard the load pass also derives the
    baseline order and the orders the guard turns down.
    """

    @pytest.mark.parametrize(
        "preset", ["2D-SW_SW", "3D-FC_Ring_SW", "4D-Ring_FC_Ring_SW"]
    )
    @pytest.mark.parametrize(
        ("kind", "guard"), [("baseline", False), ("themis", False), ("themis", True)]
    )
    def test_stage_plan_once_per_distinct_shape(self, monkeypatch, preset, kind, guard):
        from collections import Counter

        import repro.core.chunk as chunk_module
        import repro.core.scheduler as scheduler_module
        from repro.sim.network import CollectivePlanner
        from repro.topology import get_topology

        calls: Counter = Counter()
        for module in (chunk_module, scheduler_module):
            real = module.stage_plan

            def counting(ctype, size, order, topology, real=real, module=module):
                calls[module.__name__, size, tuple(order)] += 1
                return real(ctype, size, order, topology)

            monkeypatch.setattr(module, "stage_plan", counting)
        topology = get_topology(preset)
        factory = SchedulerFactory(kind, overshoot_guard=guard)
        request = make_request(size=300 * MB)
        plan, _, _ = CollectivePlanner(topology).plan(
            request, factory, (1.0,) * topology.ndims, 0.0
        )
        assert plan.nchunks == 64
        shapes = {(chunk.size, chunk.dim_order) for chunk in plan.chunks}
        built = {key[1:] for key in calls if key[0] == chunk_module.__name__}
        loaded = {key[1:] for key in calls if key[0] == scheduler_module.__name__}
        assert max(calls.values()) == 1
        assert built == shapes
        if kind == "baseline":
            assert len(shapes) == 1 and not loaded
        elif guard:
            # The guard also derives the orders it turns down.
            assert shapes <= loaded
            assert len(loaded) <= math.factorial(topology.ndims)
        else:
            assert len(shapes) > 1 and loaded == shapes
