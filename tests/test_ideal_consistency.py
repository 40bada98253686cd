"""Ideal estimators (Table 3 / LP fluid bound) and schedule consistency."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import CollectiveRequest, CollectiveType, stage_bytes_fraction
from repro.core import (
    IdealEstimator,
    LpIdealEstimator,
    SchedulerFactory,
    Splitter,
    ThemisScheduler,
    achievable_utilization,
    presimulate_intra_dim_orders,
    verify_intra_dim_consistency,
)
from repro.errors import ScheduleError
from repro.sim import FusionConfig, NetworkSimulator
from repro.topology import (
    DimensionKind,
    DimensionSpec,
    Topology,
    dimension,
    get_topology,
)
from repro.units import MB, GB

#: Unit-size makespans of the fluid LP as scipy's ``linprog`` (HiGHS) solved
#: it, one row per topology: its ``(size, bandwidth)`` pairs in bytes/s and a
#: makespan per collective type.  The rows are the topology presets, the
#: Fig. 5 example, the under-provisioned pair below and 200 seeded random
#: 1-4 dimension topologies with bandwidths spread over four decades.
LP_VALUES = json.loads(
    (Path(__file__).parent / "data" / "lp_ideal_values.json").read_text()
)


def _switch_topology(dims) -> Topology:
    return Topology(
        [
            DimensionSpec(kind=DimensionKind.SWITCH, size=p, link_bw=bw)
            for p, bw in dims
        ]
    )


@st.composite
def random_topologies(draw) -> Topology:
    """1-4 dimensions, sizes 2-16, bandwidths over four decades."""
    ndims = draw(st.integers(min_value=1, max_value=4))
    return _switch_topology(
        (
            draw(st.integers(min_value=2, max_value=16)),
            10.0 ** draw(st.floats(min_value=9.0, max_value=13.0)),
        )
        for _ in range(ndims)
    )


class TestIdealEstimator:
    def test_fig5_ideal_is_20_over_3_units(self, fig5_topology):
        """Fluid balance of the Fig. 5 example: 6.67 units for 256 MB."""
        unit = 48 * MB / fig5_topology.dims[0].bandwidth
        ideal = IdealEstimator().collective_time(
            CollectiveType.ALL_REDUCE, 256 * MB, fig5_topology
        )
        assert ideal / unit == pytest.approx(20.0 / 3.0)

    def test_scales_linearly_with_size(self, homo_3d):
        est = IdealEstimator()
        t1 = est.collective_time(CollectiveType.ALL_REDUCE, 100 * MB, homo_3d)
        t2 = est.collective_time(CollectiveType.ALL_REDUCE, 200 * MB, homo_3d)
        assert t2 == pytest.approx(2 * t1)

    def test_rs_is_half_of_ar(self, homo_3d):
        est = IdealEstimator()
        rs = est.collective_time(CollectiveType.REDUCE_SCATTER, 100 * MB, homo_3d)
        ar = est.collective_time(CollectiveType.ALL_REDUCE, 100 * MB, homo_3d)
        assert ar == pytest.approx(2 * rs)


class TestLpIdeal:
    def test_matches_simple_ideal_when_balanced(self, fig5_topology):
        """Fig. 5's 2:1 BW split is over-provisioned: LP meets the Ideal."""
        ideal = IdealEstimator().collective_time(
            CollectiveType.ALL_REDUCE, 256 * MB, fig5_topology
        )
        fluid = LpIdealEstimator().collective_time(
            CollectiveType.ALL_REDUCE, 256 * MB, fig5_topology
        )
        assert fluid == pytest.approx(ideal, rel=1e-6)

    def test_underprovisioned_gap(self):
        """Sec. 6.3: BW(dim1) > P1 x BW(dim2) cannot be fully driven."""
        topo = Topology(
            [
                dimension("ring", 4, 1000.0, latency_ns=0),
                dimension("ring", 4, 10.0, latency_ns=0),  # 1000 > 4 x 10
            ],
            name="under",
        )
        ideal = IdealEstimator().collective_time(
            CollectiveType.ALL_REDUCE, GB, topo
        )
        fluid = LpIdealEstimator().collective_time(CollectiveType.ALL_REDUCE, GB, topo)
        assert fluid > ideal * 1.05

    def test_matches_recorded_lp_optimum(self):
        """The closed form is the LP's optimum on every recorded topology."""
        estimator = LpIdealEstimator()
        for entry in LP_VALUES:
            topo = _switch_topology(entry["dims"])
            for ctype in CollectiveType:
                recorded = entry["makespan"][ctype.value]
                fluid = estimator.collective_time(ctype, 1.0, topo)
                assert fluid == pytest.approx(recorded, rel=1e-9), (
                    entry["name"],
                    ctype,
                )

    @given(
        topo=random_topologies(),
        ctype=st.sampled_from(list(CollectiveType)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_order_mix_beats_closed_form(self, topo, ctype, data):
        """Any mix of dimension orders is a feasible LP point, so its
        makespan is never below the LP optimum."""
        orders = list(itertools.permutations(range(topo.ndims)))
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False),
                min_size=len(orders),
                max_size=len(orders),
            ).filter(lambda w: sum(w) > 0)
        )
        total = sum(weights)
        mix = [0.0] * topo.ndims
        for weight, order in zip(weights, orders):
            fractions = stage_bytes_fraction(ctype, order, topo)
            for k in range(topo.ndims):
                mix[k] += weight / total * fractions[k]
        makespan = max(b / bw for b, bw in zip(mix, topo.bandwidths))
        bound = LpIdealEstimator().collective_time(ctype, 1.0, topo)
        assert makespan >= bound * (1 - 1e-12)

    def test_fluid_never_below_ideal(self):
        est_i, est_lp = IdealEstimator(), LpIdealEstimator()
        for name in ("2D-SW_SW", "3D-SW_SW_SW_hetero", "4D-Ring_FC_Ring_SW"):
            topo = get_topology(name)
            ideal = est_i.collective_time(CollectiveType.ALL_REDUCE, GB, topo)
            fluid = est_lp.collective_time(CollectiveType.ALL_REDUCE, GB, topo)
            assert fluid >= ideal * (1 - 1e-9), name

    def test_simulation_never_beats_fluid(self, homo_3d):
        fluid = LpIdealEstimator().collective_time(
            CollectiveType.ALL_REDUCE, GB, homo_3d
        )
        sim = NetworkSimulator(
            homo_3d, SchedulerFactory("themis"), policy="SCF"
        )
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, GB))
        result = sim.run()
        assert result.makespan >= fluid * (1 - 1e-9)


class TestAchievableUtilization:
    def test_perfect_for_overprovisioned(self, fig5_topology):
        util = achievable_utilization(CollectiveType.ALL_REDUCE, fig5_topology)
        assert util == pytest.approx(1.0, abs=1e-6)

    def test_below_one_for_underprovisioned(self):
        topo = Topology(
            [
                dimension("ring", 4, 1000.0, latency_ns=0),
                dimension("ring", 4, 10.0, latency_ns=0),
            ],
        )
        util = achievable_utilization(CollectiveType.ALL_REDUCE, topo)
        assert util < 0.95

    def test_paper_topologies_nearly_fully_drivable(self):
        """All Table 2 systems are over- or just-enough provisioned."""
        for name in (
            "2D-SW_SW",
            "3D-SW_SW_SW_homo",
            "3D-SW_SW_SW_hetero",
            "4D-Ring_SW_SW_SW",
        ):
            topo = get_topology(name)
            util = achievable_utilization(CollectiveType.ALL_REDUCE, topo)
            assert util > 0.99, name

    @given(topo=random_topologies())
    @settings(max_examples=100, deadline=None)
    def test_all_gather_matches_reduce_scatter(self, topo):
        """AG bytes are RS bytes of the reversed order, scaled by ``npus``:
        both estimators scale alike, so the utilization is the same."""
        ag = achievable_utilization(CollectiveType.ALL_GATHER, topo)
        rs = achievable_utilization(CollectiveType.REDUCE_SCATTER, topo)
        assert ag == pytest.approx(rs, rel=1e-12)


class TestScheduleConsistency:
    def _plan(self, topology, chunks=8):
        request = CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB)
        return ThemisScheduler(Splitter(chunks)).plan(request, topology)

    def test_presimulation_is_deterministic(self, homo_3d):
        plan = self._plan(homo_3d)
        orders = [
            presimulate_intra_dim_orders(plan, homo_3d, policy="SCF")
            for _ in range(3)
        ]
        assert verify_intra_dim_consistency(orders)

    def test_verify_rejects_empty(self):
        with pytest.raises(ScheduleError):
            verify_intra_dim_consistency([])

    def test_verify_detects_divergence(self, homo_3d):
        plan = self._plan(homo_3d)
        orders = presimulate_intra_dim_orders(plan, homo_3d)
        corrupted = {k: list(reversed(v)) for k, v in orders.items()}
        assert not verify_intra_dim_consistency([orders, corrupted])

    def test_orders_cover_every_op(self, homo_3d):
        plan = self._plan(homo_3d, chunks=4)
        orders = presimulate_intra_dim_orders(plan, homo_3d)
        total = sum(len(keys) for keys in orders.values())
        assert total == plan.total_ops

    def test_enforced_execution_matches_free_execution(self, homo_3d):
        """Enforcing the pre-simulated order must not deadlock or slow down."""

        def run(enforce):
            sim = NetworkSimulator(
                homo_3d,
                SchedulerFactory("themis", splitter=Splitter(8)),
                policy="SCF",
                enforce_consistency=enforce,
            )
            sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
            return sim.run()

        free = run(False)
        enforced = run(True)
        assert enforced.makespan == pytest.approx(free.makespan)

    def test_enforced_execution_fig5(self, fig5_topology):
        sim = NetworkSimulator(
            fig5_topology,
            SchedulerFactory("themis", splitter=Splitter(4)),
            policy="SCF",
            fusion=FusionConfig(enabled=False),
            enforce_consistency=True,
        )
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 256 * MB))
        result = sim.run()
        unit = 48 * MB / fig5_topology.dims[0].bandwidth
        assert result.makespan / unit == pytest.approx(7.0)
