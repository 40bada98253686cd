"""Extensions beyond the paper's core: in-network offload (Sec. 4.5),
exhaustive reference scheduling, the overshoot guard, and topology
serialization."""

from __future__ import annotations

import json

import pytest

from repro.collectives import (
    CollectiveRequest,
    CollectiveType,
    PhaseOp,
    SwitchOffloadAlgorithm,
    get_algorithm,
    offload_overrides,
)
from repro.core import ExhaustiveScheduler, SchedulerFactory, Splitter, ThemisScheduler
from repro.errors import ScheduleError, TopologyError
from repro.sim import FusionConfig, NetworkSimulator, bw_utilization
from repro.topology import (
    Topology,
    dimension,
    get_topology,
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.units import GB, MB


class TestSwitchOffload:
    def test_registered(self):
        assert get_algorithm("SwitchOffload").name == "SwitchOffload"

    def test_rs_uploads_full_stage(self):
        algo = SwitchOffloadAlgorithm()
        assert algo.bytes_per_npu(PhaseOp.RS, 64 * MB, 8) == pytest.approx(64 * MB)

    def test_ag_uploads_own_shard(self):
        algo = SwitchOffloadAlgorithm()
        assert algo.bytes_per_npu(PhaseOp.AG, 64 * MB, 8) == pytest.approx(8 * MB)

    def test_ar_round_trip_halves_traffic_vs_hd(self):
        """SHARP's headline: All-Reduce traffic ~halves versus peer-wise."""
        offload = SwitchOffloadAlgorithm()
        hd = get_algorithm("HalvingDoubling")
        peers = 8
        size = 64 * MB
        offload_total = offload.bytes_per_npu(
            PhaseOp.RS, size, peers
        ) + offload.bytes_per_npu(PhaseOp.AG, size, peers)
        hd_total = hd.bytes_per_npu(PhaseOp.RS, size, peers) + hd.bytes_per_npu(
            PhaseOp.AG, size, peers
        )
        assert offload_total < hd_total * 0.75

    def test_two_step_latency(self):
        algo = SwitchOffloadAlgorithm()
        assert algo.steps(PhaseOp.RS, 64) == 2
        assert algo.steps(PhaseOp.AG, 64) == 2

    def test_offload_overrides_targets_switches_only(self):
        topo = get_topology("3D-FC_Ring_SW")  # FC, Ring, SW
        overrides = offload_overrides(topo)
        assert overrides == {2: "SwitchOffload"}

    def test_offload_speeds_up_collective(self):
        """Offloading the switch dims reduces their byte volume."""
        topo = get_topology("3D-SW_SW_SW_homo")

        def run(overrides):
            sim = NetworkSimulator(
                topo,
                SchedulerFactory("baseline"),
                policy="FIFO",
                algorithm_overrides=overrides,
            )
            sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, GB))
            return sim.run()

        plain = run(None)
        offloaded = run(offload_overrides(topo))
        assert offloaded.makespan < plain.makespan

    def test_themis_still_helps_with_offload(self):
        """Sec. 4.5: hierarchical scheduling imbalance persists under
        in-network offload, so Themis still improves utilization."""
        topo = get_topology("3D-SW_SW_SW_homo")
        overrides = offload_overrides(topo)

        def run(kind, policy):
            sim = NetworkSimulator(
                topo,
                SchedulerFactory(kind),
                policy=policy,
                algorithm_overrides=overrides,
            )
            sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, GB))
            return sim.run()

        baseline = run("baseline", "FIFO")
        themis = run("themis", "SCF")
        assert themis.makespan < baseline.makespan * 0.8
        assert (
            bw_utilization(themis).average > bw_utilization(baseline).average
        )


class TestExhaustiveScheduler:
    def test_fig5_optimum_is_7_units(self, fig5_topology):
        """Ground truth for the worked example: 7 units is optimal, so the
        greedy Themis schedule is exactly optimal there."""
        request = CollectiveRequest(CollectiveType.ALL_REDUCE, 256 * MB)
        scheduler = ExhaustiveScheduler(Splitter(4))
        plan = scheduler.plan(request, fig5_topology)
        assert plan.nchunks == 4
        unit = 48 * MB / fig5_topology.dims[0].bandwidth
        outcome = scheduler.last_outcome
        assert outcome is not None
        assert outcome.candidates_evaluated == 2 ** 4  # (2!)^4
        assert outcome.makespan / unit == pytest.approx(7.0)

    def test_themis_matches_exhaustive_on_fig5(self, fig5_topology):
        request = CollectiveRequest(CollectiveType.ALL_REDUCE, 256 * MB)
        exhaustive = ExhaustiveScheduler(Splitter(4))
        exhaustive.plan(request, fig5_topology)

        sim = NetworkSimulator(
            fig5_topology,
            SchedulerFactory("themis", splitter=Splitter(4)),
            policy="SCF",
            fusion=FusionConfig(enabled=False),
        )
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 256 * MB))
        themis_makespan = sim.run().makespan
        assert themis_makespan == pytest.approx(exhaustive.last_outcome.makespan)

    def test_search_cap_enforced(self, asymmetric_3d):
        request = CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB)
        scheduler = ExhaustiveScheduler(Splitter(16), search_cap=100)
        with pytest.raises(ScheduleError):
            scheduler.plan(request, asymmetric_3d)

    def test_exhaustive_never_worse_than_themis(self, small_2d):
        request = CollectiveRequest(CollectiveType.ALL_REDUCE, 32 * MB)
        exhaustive = ExhaustiveScheduler(Splitter(3))
        exhaustive.plan(request, small_2d)

        sim = NetworkSimulator(
            small_2d,
            SchedulerFactory("themis", splitter=Splitter(3)),
            policy="SCF",
            fusion=FusionConfig(enabled=False),
        )
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 32 * MB))
        themis = sim.run().makespan
        assert exhaustive.last_outcome.makespan <= themis * (1 + 1e-9)


class TestOvershootGuard:
    def just_enough(self) -> Topology:
        """16x8 with BW2 = BW1/16: the just-enough corner (see
        ``tests/test_claims.py::test_sec63_provisioning_regimes``)."""
        return Topology(
            [
                dimension("sw", 16, 800.0, latency_ns=700),
                dimension("sw", 8, 50.0, latency_ns=1700),
            ],
            name="just-enough",
        )

    def _util(self, kind_kwargs) -> float:
        sim = NetworkSimulator(
            self.just_enough(),
            SchedulerFactory("themis", **kind_kwargs),
            policy="SCF",
        )
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, GB))
        return bw_utilization(sim.run()).average

    def test_guard_recovers_just_enough_utilization(self):
        unguarded = self._util({})
        guarded = self._util({"overshoot_guard": True})
        assert guarded > unguarded - 1e-9
        assert guarded > 0.93

    def test_guard_neutral_on_overprovisioned(self):
        """On the paper's over-provisioned systems the guard must not
        reduce Themis's benefit."""
        topo = get_topology("3D-SW_SW_SW_homo")

        def util(guard: bool) -> float:
            sim = NetworkSimulator(
                topo,
                SchedulerFactory("themis", overshoot_guard=guard),
                policy="SCF",
            )
            sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, GB))
            return bw_utilization(sim.run()).average

        assert util(True) > util(False) - 0.02

    def test_guard_exposed_on_scheduler(self):
        scheduler = ThemisScheduler(overshoot_guard=True)
        assert scheduler.overshoot_guard is True


class TestTopologySerialization:
    def test_round_trip(self, asymmetric_3d):
        data = topology_to_dict(asymmetric_3d)
        rebuilt = topology_from_dict(data)
        assert rebuilt == asymmetric_3d
        assert rebuilt.name == asymmetric_3d.name

    def test_round_trip_all_presets(self):
        from repro.topology import preset_names

        for name in preset_names():
            topo = get_topology(name)
            assert topology_from_dict(topology_to_dict(topo)) == topo

    def test_file_round_trip(self, tmp_path, asymmetric_3d):
        path = tmp_path / "topo.json"
        save_topology(asymmetric_3d, path)
        assert load_topology(path) == asymmetric_3d

    def test_defaults_applied(self):
        topo = topology_from_dict(
            {"dims": [{"kind": "ring", "size": 4, "link_gbps": 100}] * 2}
        )
        assert topo.dims[0].links_per_npu == 1
        assert topo.dims[0].step_latency == 0.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict(
                {"dims": [{"kind": "ring", "size": 4, "link_gbps": 1,
                           "bandwidht": 5}]}
            )

    def test_missing_keys_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"dims": [{"kind": "ring", "size": 4}]})

    def test_empty_dims_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"dims": []})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TopologyError):
            load_topology(path)

    def test_json_serializable(self, asymmetric_3d):
        json.dumps(topology_to_dict(asymmetric_3d))
