"""Placement policies: registry, arrival-time decisions, specs, experiment."""

from __future__ import annotations

import pytest

from repro import api
from repro.cluster import (
    AllDimsPlacement,
    ClusterConfig,
    ClusterSimulator,
    InterleavedPlacement,
    JobSpec,
    LoadBalancedPlacement,
    ManualPlacement,
    PlacementPolicy,
    get_placement,
    placement_names,
    register_placement,
)
from repro.errors import ConfigError, SpecError
from repro.experiments.placement import placement_trace, run_placement_comparison
from repro.topology import Topology, dimension
from repro.workloads import comm_compute_profile, flood


def tiny_topology(ndims: int = 3) -> Topology:
    return Topology(
        [dimension("sw", 4, 400.0, latency_ns=100) for _ in range(ndims)],
        name=f"tiny-{ndims}d",
    )


def talker(name: str) -> "object":
    """Comm-bound job: duty cycle ~1 on a tiny-platform dimension."""
    return flood(4, 8, name)


def thinker(name: str) -> "object":
    """Compute-bound job: duty cycle ~0."""
    return flood(2, 0.25, name, fwd_flops=4e10, bwd_flops=8e10)


def burst(workloads: "list[tuple[str, object]]", iterations: int = 2) -> list[JobSpec]:
    """All jobs arrive at t=0, admitted in list order."""
    return [
        JobSpec(name=name, workload=workload, iterations=iterations)
        for name, workload in workloads
    ]


def run_with(placement, jobs, topology=None, **config_kwargs):
    sim = ClusterSimulator(
        topology or tiny_topology(),
        jobs,
        ClusterConfig(placement=placement, **config_kwargs),
    )
    report = sim.run()
    return sim, report


# --- registry ----------------------------------------------------------------
class TestRegistry:
    def test_names(self):
        assert placement_names() == (
            "all-dims", "interleaved", "load-balanced", "manual",
        )

    def test_get_by_name_and_instance(self):
        assert isinstance(get_placement("manual"), ManualPlacement)
        assert isinstance(get_placement("ALL-DIMS"), AllDimsPlacement)
        configured = LoadBalancedPlacement(capacity=2)
        assert get_placement(configured) is configured
        assert get_placement(None) is None

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            get_placement("round-robin")

    def test_register(self):
        class Fixed(PlacementPolicy):
            name = "test-fixed"
            label = "Fixed"

            def place(self, spec, cluster):
                return (0,)

        register_placement("test-fixed", Fixed)
        assert "test-fixed" in placement_names()
        assert isinstance(get_placement("test-fixed"), Fixed)
        # Visible through the unified api registry too.
        assert "test-fixed" in api.registry_keys("placement")
        with pytest.raises(ConfigError, match="already registered"):
            register_placement("test-fixed", Fixed)

    def test_constructor_validation(self):
        with pytest.raises(ConfigError, match="dims_per_job"):
            LoadBalancedPlacement(dims_per_job=0)
        with pytest.raises(ConfigError, match="capacity"):
            LoadBalancedPlacement(capacity=0)
        with pytest.raises(ConfigError, match="dims_per_job"):
            InterleavedPlacement(dims_per_job=-1)


# --- placement decisions -----------------------------------------------------
class TestDecisions:
    def test_manual_honors_dim_indices(self):
        jobs = [
            JobSpec(name="a", workload=talker("a"), dim_indices=(1,)),
            JobSpec(name="b", workload=talker("b")),
        ]
        _, report = run_with("manual", jobs, isolated_baselines=False)
        assert report.job("a").placement == (1,)
        assert report.job("b").placement is None
        assert report.placement_name is not None

    def test_all_dims_overrides_dim_indices(self):
        jobs = [JobSpec(name="a", workload=talker("a"), dim_indices=(0,))]
        _, report = run_with("all-dims", jobs, isolated_baselines=False)
        assert report.job("a").placement is None
        assert report.job("a").placement_label == "all"

    def test_load_balanced_spreads_a_burst(self):
        jobs = burst([(f"j{i}", talker(f"j{i}")) for i in range(6)])
        sim, report = run_with("load-balanced", jobs, isolated_baselines=False)
        per_dim = [0, 0, 0]
        for job in report.jobs:
            assert job.placement is not None and len(job.placement) == 1
            per_dim[job.placement[0]] += 1
        assert per_dim == [2, 2, 2]

    def test_load_balanced_respects_declared_width(self):
        jobs = [JobSpec(name="w2", workload=talker("w2"), dim_indices=(0, 2))]
        _, report = run_with("load-balanced", jobs, isolated_baselines=False)
        assert len(report.job("w2").placement) == 2

    def test_dims_per_job_covering_platform_means_all(self):
        jobs = burst([("j0", talker("j0"))])
        _, report = run_with(
            LoadBalancedPlacement(dims_per_job=3), jobs,
            isolated_baselines=False,
        )
        assert report.job("j0").placement is None

    def test_capacity_never_exceeded_when_feasible(self):
        # 6 width-1 jobs, 3 dims, capacity 2: exactly two tenants per
        # dimension; the whole burst overlaps in time, so every admission
        # saw the true concurrent counts.
        jobs = burst([(f"j{i}", talker(f"j{i}")) for i in range(6)])
        _, report = run_with(
            LoadBalancedPlacement(capacity=2), jobs, isolated_baselines=False,
        )
        per_dim = [0, 0, 0]
        for job in report.jobs:
            per_dim[job.placement[0]] += 1
        assert max(per_dim) <= 2

    def test_capacity_one_gives_distinct_dims(self):
        jobs = burst([(f"j{i}", talker(f"j{i}")) for i in range(3)])
        _, report = run_with(
            LoadBalancedPlacement(capacity=1), jobs, isolated_baselines=False,
        )
        dims = sorted(job.placement[0] for job in report.jobs)
        assert dims == [0, 1, 2]

    def test_saturated_capacity_overflows_instead_of_failing(self):
        jobs = burst([(f"j{i}", talker(f"j{i}")) for i in range(4)])
        _, report = run_with(
            LoadBalancedPlacement(capacity=1), jobs, isolated_baselines=False,
        )
        assert all(job.placement is not None for job in report.jobs)

    def test_interleaved_separates_colliding_talkers(self):
        # Arrival burst on 2 dims: nothing is on any wire yet, so
        # bin-packing's tie-breaks pack the second talker with the first,
        # while the duty cycles steer it next to the thinker instead.
        topo = tiny_topology(2)
        jobs = burst(
            [("talk0", talker("talk0")), ("think0", thinker("think0")),
             ("talk1", talker("talk1"))]
        )
        _, lb = run_with("load-balanced", jobs, topo, isolated_baselines=False)
        _, il = run_with("interleaved", jobs, topo, isolated_baselines=False)
        assert lb.job("talk1").placement == lb.job("talk0").placement
        assert il.job("talk1").placement != il.job("talk0").placement
        assert il.mean_jct < lb.mean_jct

    def test_out_of_range_assignment_is_rejected(self):
        class Bad(PlacementPolicy):
            name = "test-bad"
            label = "Bad"

            def place(self, spec, cluster):
                return (7,)

        jobs = burst([("j0", talker("j0"))])
        sim = ClusterSimulator(
            tiny_topology(), jobs, ClusterConfig(placement=Bad())
        )
        with pytest.raises(ConfigError, match="out-of-range dimension"):
            sim.run()


# --- determinism and bit-for-bit equivalence ---------------------------------
class TestDeterminism:
    @pytest.mark.parametrize(
        "policy", ["manual", "all-dims", "load-balanced", "interleaved"]
    )
    def test_same_trace_same_assignment(self, policy):
        def one_run():
            jobs = burst(
                [("t0", talker("t0")), ("th0", thinker("th0")),
                 ("t1", talker("t1")), ("th1", thinker("th1"))]
            )
            sim, report = run_with(policy, jobs, isolated_baselines=False)
            return (
                dict(sim.placements),
                [job.finish_time for job in report.jobs],
            )

        first_placements, first_finishes = one_run()
        second_placements, second_finishes = one_run()
        assert first_placements == second_placements
        assert first_finishes == second_finishes

    def test_policy_instance_reusable_across_runs(self):
        policy = InterleavedPlacement()
        jobs = burst([("t0", talker("t0")), ("t1", talker("t1"))])
        _, first = run_with(policy, jobs, isolated_baselines=False)
        _, second = run_with(policy, jobs, isolated_baselines=False)
        assert [j.placement for j in first.jobs] == [
            j.placement for j in second.jobs
        ]

    def test_manual_bit_identical_to_default_path(self):
        """placement='manual' reproduces hand-placed runs bit for bit."""
        jobs = [
            JobSpec(name="a", workload=talker("a"), dim_indices=(0,)),
            JobSpec(
                name="b", workload=talker("b"), dim_indices=(1, 2),
                arrival_time=1e-4,
            ),
            JobSpec(name="c", workload=thinker("c"), arrival_time=2e-4),
        ]
        sims = {}
        for key, placement in (
            ("default", None),
            ("named", "manual"),
            ("instance", ManualPlacement()),
        ):
            sims[key] = run_with(placement, jobs)
        baseline_sim, baseline_report = sims["default"]
        for key in ("named", "instance"):
            sim, report = sims[key]
            assert sim.engine.events_processed == (
                baseline_sim.engine.events_processed
            )
            for ours, theirs in zip(report.jobs, baseline_report.jobs):
                assert ours.finish_time == theirs.finish_time  # exact
                assert ours.isolated_time == theirs.isolated_time
                assert ours.placement == theirs.placement
                assert ours.comm_active_seconds == theirs.comm_active_seconds


# --- report fields -----------------------------------------------------------
class TestReporting:
    def test_placement_recorded_and_rendered(self):
        jobs = burst([("j0", talker("j0")), ("j1", talker("j1"))])
        _, report = run_with("load-balanced", jobs, isolated_baselines=False)
        text = report.describe()
        assert "placement: Load-balanced bin-packing" in text
        assert "dims" in text
        assert report.load_imbalance is not None
        assert len(report.dim_load) == 3

    def test_load_imbalance_math(self):
        from repro.cluster.metrics import ClusterReport

        report = ClusterReport(topology_name="t", jobs=[], dim_load=(3.0, 1.0, 2.0))
        assert report.load_imbalance == pytest.approx(1.5)
        assert ClusterReport(topology_name="t", jobs=[]).load_imbalance is None

    def test_truncated_run_marks_unplaced_jobs(self):
        jobs = [
            JobSpec(name="now", workload=talker("now")),
            JobSpec(name="later", workload=talker("later"), arrival_time=10.0),
        ]
        sim = ClusterSimulator(
            tiny_topology(), jobs,
            ClusterConfig(placement="load-balanced", isolated_baselines=False),
        )
        report = sim.run(max_events=20)
        assert report.truncated
        later = report.job("later")
        assert not later.placed
        assert later.placement_label == "?"


# --- duty-cycle profile ------------------------------------------------------
class TestProfile:
    def test_duty_cycle_ordering(self):
        bandwidth = 50e9
        talk = comm_compute_profile(talker("t"))
        think = comm_compute_profile(thinker("th"))
        assert 0.9 < talk.duty_cycle(bandwidth) <= 1.0
        assert think.duty_cycle(bandwidth) < 0.1

    def test_comm_bytes_counts_gradients_and_attachments(self):
        workload = flood(2, 1.0, "x")
        profile = comm_compute_profile(workload)
        assert profile.comm_bytes == pytest.approx(
            2.0 * workload.total_param_bytes
        )

    def test_bandwidth_validation(self):
        profile = comm_compute_profile(talker("t"))
        with pytest.raises(ConfigError):
            profile.comm_seconds(0.0)


# --- specs and the api layer -------------------------------------------------
class TestSpecs:
    def test_round_trip(self):
        spec = api.ClusterScenario(
            jobs=(api.ScenarioJob(name="j0", workload="dlrm"),),
            placement="load-balanced",
        )
        assert api.spec_from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["placement"] == "load-balanced"

    def test_round_trip_through_json(self, tmp_path):
        spec = api.ClusterScenario(
            jobs=(api.ScenarioJob(name="j0", workload="flood"),),
            placement="interleaved",
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        assert api.load_spec(path) == spec

    def test_unknown_placement_key_has_did_you_mean(self):
        with pytest.raises(SpecError, match="did you mean 'interleaved'"):
            api.ClusterScenario(
                jobs=(api.ScenarioJob(name="j0", workload="dlrm"),),
                placement="interleavd",
            )

    def test_non_string_placement_key_is_a_spec_error(self):
        # A mistyped JSON document can put any value here; it must fail as
        # a spec error with the known keys, not an AttributeError.
        with pytest.raises(SpecError, match="placement: expected str"):
            api.spec_from_dict(
                {
                    "schema": 1,
                    "mode": "cluster",
                    "trace": {"workloads": ["dlrm"]},
                    "placement": 5,
                }
            )

    def test_dotted_override(self):
        spec = api.ClusterScenario(
            jobs=(api.ScenarioJob(name="j0", workload="dlrm"),),
        )
        overridden = spec.with_overrides({"placement": "all-dims"})
        assert overridden.placement == "all-dims"

    def test_runner_threads_placement_through(self):
        from repro.topology import topology_to_dict

        spec = api.ClusterScenario(
            topology=topology_to_dict(tiny_topology()),
            jobs=tuple(
                api.ScenarioJob(
                    name=f"j{i}",
                    workload="flood",
                    workload_args={"layers": 2, "param_mb": 2},
                )
                for i in range(2)
            ),
            placement="load-balanced",
            isolated_baselines=False,
        )
        report = api.run(spec)
        assert report.payload["placement"] is not None
        assert report.payload["load_imbalance"] is not None
        assert all(
            row["placement"] is not None for row in report.payload["jobs"]
        )


# --- live channel load signals -----------------------------------------------
class TestChannelSignals:
    def test_outstanding_drains_to_zero(self):
        jobs = burst([("j0", talker("j0")), ("j1", talker("j1"))])
        sim, _ = run_with("load-balanced", jobs, isolated_baselines=False)
        for channel in sim.network.channels:
            assert channel.outstanding_bytes == pytest.approx(0.0, abs=1e-6)


# --- the experiment ----------------------------------------------------------
class TestExperiment:
    def test_comparison_on_tiny_platform(self):
        topo = tiny_topology()
        jobs = placement_trace(scale=0.25, ndims=3)
        result = run_placement_comparison(
            topology=topo, jobs=jobs, schedulers=("themis",),
            policies=("all-dims", "load-balanced", "interleaved"),
        )
        text = result.render()
        assert "placement comparison" in text
        assert "load imb" in text
        # The headline: automatic placement beats the all-dims baseline on
        # this saturating trace.
        assert result.auto_vs_all_dims("themis") > 1.0

    def test_sweep_spec_serializes(self):
        from repro.experiments.placement import placement_sweep

        base, axes = placement_sweep(quick=True)
        assert base.placement == "manual"
        assert "placement" in axes
        assert api.spec_from_dict(base.to_dict()) == base

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown placement"):
            run_placement_comparison(policies=("round-robin",))

    def test_trace_validation(self):
        with pytest.raises(ConfigError):
            placement_trace(scale=0)
        with pytest.raises(ConfigError):
            placement_trace(ndims=1)
