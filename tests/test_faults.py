"""Fault injection: link degradation, job crash/retry, degraded experiments.

Covers the fault layer end to end:

* :class:`FaultSchedule` properties (hypothesis): determinism from seed,
  disjoint per-dimension substreams, degrade/restore pairing of generated
  flaps, multiplicative composition of overlapping faults;
* channel-level capacity changes: byte conservation through mid-flow
  degradation (audited), full-failure parking with no infinite events,
  bit-identical zero-fault runs;
* cluster-level job faults: retry/attempt accounting, failed jobs
  excluded from JCT statistics, checkpoint rollback, determinism;
* the spec/CLI surface and the degraded-ring scheduler comparison
  (Themis must beat Baseline under a degraded link).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.cluster import ClusterConfig, JobSpec, run_cluster
from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import LatencyModel, SchedulerFactory, Splitter
from repro.errors import ConfigError, SimulationError, SpecError
from repro.sim import (
    MIN_CAPACITY_FACTOR,
    FaultSchedule,
    JobFaultPolicy,
    LinkFault,
    NetworkSimulator,
    ScaledLatencyModel,
    compose_factors,
    fault_substream,
)
from repro.topology import Topology, dimension
from repro.units import MB
from repro.workloads import Layer, Workload


def tiny_topology() -> Topology:
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
        ],
        name="tiny-4x4",
    )


def tiny_workload(param_mb: float = 16.0, name: str = "tiny") -> Workload:
    return Workload(
        name=name,
        layers=[
            Layer(name=f"l{i}", fwd_flops=1e9, bwd_flops=2e9,
                  param_bytes=param_mb * MB / 4)
            for i in range(4)
        ],
        batch_per_npu=1,
    )


def run_collective(topology, schedule: FaultSchedule | None = None,
                   size=64 * MB, chunks=4, audit=True):
    sim = NetworkSimulator(
        topology,
        SchedulerFactory("themis", splitter=Splitter(chunks)),
        audit=audit,
    )
    if schedule is not None:
        sim.apply_fault_schedule(schedule)
    sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, size))
    return sim.run()


# --- LinkFault / FaultSchedule ----------------------------------------------
class TestLinkFault:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LinkFault(dim_index=-1, start=0.0, factor=0.5)
        with pytest.raises(ConfigError):
            LinkFault(dim_index=0, start=-1.0, factor=0.5)
        with pytest.raises(ConfigError):
            LinkFault(dim_index=0, start=0.0, factor=1.5)
        with pytest.raises(ConfigError):
            LinkFault(dim_index=0, start=0.0, factor=-0.1)
        with pytest.raises(ConfigError):
            LinkFault(dim_index=0, start=0.0, factor=0.5, duration=0.0)

    def test_near_zero_factor_clamps_to_failure(self):
        fault = LinkFault(dim_index=0, start=0.0, factor=1e-15)
        assert fault.factor == 0.0

    def test_end(self):
        assert LinkFault(0, 1.0, 0.5).end is None
        assert LinkFault(0, 1.0, 0.5, duration=2.0).end == 3.0

    def test_schedule_coerces_dicts(self):
        schedule = FaultSchedule(
            ({"dim_index": 1, "start": 0.5, "factor": 0.25},)
        )
        assert schedule.events[0] == LinkFault(1, 0.5, 0.25)

    def test_restricted_to(self):
        schedule = FaultSchedule((LinkFault(3, 0.0, 0.5),))
        with pytest.raises(ConfigError, match="3 dimension"):
            schedule.restricted_to(3)
        assert schedule.restricted_to(4) is schedule

    def test_generators_check_knobs_before_drawing(self):
        # no dimensions means nothing is drawn; the knobs are still checked
        with pytest.raises(ConfigError, match="factor"):
            FaultSchedule.flaps((), seed=0, factor=2.0)
        with pytest.raises(ConfigError, match="factor"):
            FaultSchedule.stragglers((), seed=0, factor=math.nan)
        with pytest.raises(ConfigError, match="dim_index"):
            FaultSchedule.stragglers((-1,), seed=0, probability=0.0)
        with pytest.raises(ConfigError, match="mean_interval"):
            FaultSchedule.flaps((0,), seed=0, mean_interval=math.inf)
        assert not FaultSchedule.flaps((), seed=0)

    def test_non_finite_times_rejected(self):
        with pytest.raises(ConfigError):
            LinkFault(dim_index=0, start=math.inf, factor=0.5)
        with pytest.raises(ConfigError):
            LinkFault(dim_index=0, start=0.0, factor=0.5, duration=math.nan)
        with pytest.raises(ConfigError):
            JobFaultPolicy(crash_rate=1.0, restart_overhead=math.nan)

    def test_compose_factors_clamps_near_zero(self):
        assert compose_factors({}) == 1.0
        assert compose_factors({1: 0.5, 2: 0.5}) == 0.25
        assert compose_factors({1: 1e-5, 2: 1e-5}) == 0.0


class TestFaultScheduleProperties:
    @given(seed=st.integers(0, 2**32), dims=st.lists(
        st.integers(0, 7), min_size=1, max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_flaps_deterministic_from_seed(self, seed, dims):
        a = FaultSchedule.flaps(tuple(dims), seed=seed)
        b = FaultSchedule.flaps(tuple(dims), seed=seed)
        assert a == b

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_flap_substreams_disjoint(self, seed):
        """A dimension's flap pattern is independent of which other
        dimensions are flapping (per-dimension substreams)."""
        alone = FaultSchedule.flaps((2,), seed=seed, count=3)
        joint = FaultSchedule.flaps((0, 2, 5), seed=seed, count=3)
        dim2 = tuple(e for e in joint.events if e.dim_index == 2)
        assert dim2 == alone.events

    @given(seed=st.integers(0, 2**32),
           factor=st.floats(0.1, 0.9),
           count=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_flaps_degrade_then_restore(self, seed, factor, count):
        """Every generated flap is a paired degrade/restore: finite
        duration, degraded inside the window, full capacity outside."""
        schedule = FaultSchedule.flaps((0,), seed=seed, count=count,
                                       factor=factor)
        assert len(schedule.events) == count
        for event in schedule.events:
            assert event.duration is not None and event.duration > 0
            mid = event.start + event.duration / 2
            assert schedule.active_factor(0, mid) <= factor
            assert schedule.active_factor(0, event.start) <= factor
        horizon = max(e.end for e in schedule.events)
        assert schedule.active_factor(0, horizon + 1.0) == 1.0

    @given(seed=st.integers(0, 2**32), probability=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_stragglers_deterministic_and_persistent(self, seed, probability):
        a = FaultSchedule.stragglers((0, 1, 2), seed=seed,
                                     probability=probability)
        b = FaultSchedule.stragglers((0, 1, 2), seed=seed,
                                     probability=probability)
        assert a == b
        for event in a.events:
            assert event.end is None  # persistent, never restores

    def test_substreams_differ_by_label(self):
        draws_a = fault_substream(7, "flap:dim0").random()
        draws_b = fault_substream(7, "flap:dim1").random()
        draws_c = fault_substream(8, "flap:dim0").random()
        assert draws_a != draws_b
        assert draws_a != draws_c

    def test_overlapping_faults_multiply(self):
        schedule = FaultSchedule(
            (LinkFault(0, 0.0, 0.5, duration=2.0),
             LinkFault(0, 1.0, 0.5, duration=2.0))
        )
        assert schedule.active_factor(0, 0.5) == 0.5
        assert schedule.active_factor(0, 1.5) == 0.25
        assert schedule.active_factor(0, 2.5) == 0.5
        assert schedule.active_factor(0, 3.5) == 1.0


class TestScaledLatencyModel:
    def test_scales_chunk_load(self):
        topo = tiny_topology()
        base = LatencyModel(topo)
        scaled = ScaledLatencyModel(base, (1.0, 0.5))
        from repro.collectives.types import PhaseOp

        nominal = base.chunk_load(PhaseOp.RS, 1 * MB, 1)
        degraded = scaled.chunk_load(PhaseOp.RS, 1 * MB, 1)
        untouched = scaled.chunk_load(PhaseOp.RS, 1 * MB, 0)
        assert degraded == pytest.approx(nominal / 0.5)
        assert untouched == base.chunk_load(PhaseOp.RS, 1 * MB, 0)

    def test_zero_factor_clamps_not_inf(self):
        topo = tiny_topology()
        scaled = ScaledLatencyModel(LatencyModel(topo), (1.0, 0.0))
        from repro.collectives.types import PhaseOp

        load = scaled.chunk_load(PhaseOp.RS, 1 * MB, 1)
        assert math.isfinite(load)
        assert load > 0

    def test_validates_factor_count(self):
        with pytest.raises(ConfigError):
            ScaledLatencyModel(LatencyModel(tiny_topology()), (1.0,))
        with pytest.raises(ConfigError):
            ScaledLatencyModel(LatencyModel(tiny_topology()), (1.0, -0.5))


# --- channel capacity changes (audited) -------------------------------------
class TestChannelCapacity:
    def test_degradation_slows_but_conserves(self):
        healthy = run_collective(tiny_topology())
        degraded = run_collective(
            tiny_topology(),
            FaultSchedule((LinkFault(1, healthy.makespan / 4, 0.25),)),
        )
        assert degraded.makespan > healthy.makespan
        # Byte conservation across the mid-flow change is enforced by the
        # auditor (audit=True); stats stay nominal.
        for dim in range(2):
            assert degraded.dim_bytes[dim] == pytest.approx(
                healthy.dim_bytes[dim]
            )

    def test_failure_parks_and_resumes(self):
        healthy = run_collective(tiny_topology())
        outage = healthy.makespan / 2
        result = run_collective(
            tiny_topology(),
            FaultSchedule((LinkFault(1, outage / 2, 0.0, duration=outage),)),
        )
        assert result.makespan >= healthy.makespan
        assert math.isfinite(result.makespan)

    def test_permanent_failure_is_a_diagnosed_deadlock(self):
        with pytest.raises(SimulationError, match="zero capacity"):
            run_collective(
                tiny_topology(),
                FaultSchedule((LinkFault(1, 0.0, 0.0),)),
            )

    def test_factor_one_fault_is_bit_identical(self):
        """A capacity 'change' to 1.0 must not perturb the timeline."""
        healthy = run_collective(tiny_topology(), audit=False)
        noop = run_collective(
            tiny_topology(),
            FaultSchedule((LinkFault(1, healthy.makespan / 3, 1.0),)),
            audit=False,
        )
        assert noop.makespan == healthy.makespan

    def test_set_capacity_factor_validation(self):
        sim = NetworkSimulator(
            tiny_topology(), SchedulerFactory("themis", splitter=Splitter(2))
        )
        with pytest.raises(ConfigError):
            sim.channels[0].set_capacity_factor(1.5)
        with pytest.raises(ConfigError):
            sim.channels[0].set_capacity_factor(-0.1)
        sim.channels[0].set_capacity_factor(0.5 * MIN_CAPACITY_FACTOR)
        assert sim.channels[0].capacity_factor == 0.0

    def test_apply_fault_rejects_bad_targets(self):
        sim = NetworkSimulator(
            tiny_topology(), SchedulerFactory("themis", splitter=Splitter(2))
        )
        with pytest.raises(ConfigError, match="2 dimension"):
            sim.apply_fault(LinkFault(5, 0.0, 0.5))

    def test_fault_timeline_records_changes(self):
        sim = NetworkSimulator(
            tiny_topology(), SchedulerFactory("themis", splitter=Splitter(2))
        )
        sim.apply_fault(LinkFault(1, 1e-4, 0.5, duration=1e-4))
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        sim.run()
        times = [entry[0] for entry in sim.fault_timeline]
        factors = [entry[2] for entry in sim.fault_timeline]
        assert times == [pytest.approx(1e-4), pytest.approx(2e-4)]
        assert factors == [0.5, 1.0]


# --- cluster-level job faults ------------------------------------------------
class TestJobFaultPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            JobFaultPolicy(crash_rate=0.0)
        with pytest.raises(ConfigError):
            JobFaultPolicy(crash_rate=1.0, max_retries=-1)
        with pytest.raises(ConfigError):
            JobFaultPolicy(crash_rate=1.0, backoff_factor=0.5)
        with pytest.raises(ConfigError):
            JobFaultPolicy(crash_rate=1.0, checkpoint_iterations=0)

    def test_retry_delay_grows_exponentially(self):
        policy = JobFaultPolicy(crash_rate=1.0, backoff_base=1e-3,
                                backoff_factor=2.0, backoff_jitter=0.0,
                                restart_overhead=1e-4)
        rng = fault_substream(0, "test")
        assert policy.retry_delay(1, rng) == pytest.approx(1e-3 + 1e-4)
        assert policy.retry_delay(3, rng) == pytest.approx(4e-3 + 1e-4)


class TestClusterJobFaults:
    def _jobs(self, n=3):
        return [
            JobSpec(name=f"j{i}", workload=tiny_workload(name=f"w{i}"),
                    arrival_time=i * 1e-4, iterations=2)
            for i in range(n)
        ]

    def _config(self, **kwargs):
        defaults = dict(isolated_baselines=False, audit=True)
        defaults.update(kwargs)
        return ClusterConfig(**defaults)

    def test_zero_fault_config_is_bit_identical(self):
        plain = run_cluster(tiny_topology(), self._jobs(), self._config())
        empty = run_cluster(
            tiny_topology(), self._jobs(),
            self._config(link_faults=FaultSchedule()),
        )
        assert [j.finish_time for j in plain.jobs] == [
            j.finish_time for j in empty.jobs
        ]

    def test_crash_retry_accounting(self):
        policy = JobFaultPolicy(crash_rate=2000.0, max_retries=4, seed=11)
        report = run_cluster(
            tiny_topology(), self._jobs(), self._config(job_faults=policy)
        )
        assert sum(j.attempts for j in report.jobs) > len(report.jobs)
        assert report.total_retries > 0
        assert report.lost_work_seconds > 0
        for job in report.jobs:
            if job.failed:
                assert job.finish_time is None
                assert job.fail_time is not None
                assert job.attempts <= policy.max_retries + 1
            else:
                assert job.finished
                assert job.fail_time is None

    def test_failed_jobs_terminal_state(self):
        # max_retries=0 and a huge hazard: every job fails on first crash.
        policy = JobFaultPolicy(crash_rate=1e6, max_retries=0, seed=1)
        report = run_cluster(
            tiny_topology(), self._jobs(), self._config(job_faults=policy)
        )
        assert len(report.failed_jobs) == len(report.jobs)
        assert report.completion_rate == 0.0
        assert report.unfinished_jobs == []  # failed is terminal, not stuck
        assert report.mean_jct is None  # failed jobs carry no JCT
        assert report.describe()  # renders without NaN crashes

    def test_checkpointing_bounds_rollback(self):
        crashy = JobFaultPolicy(crash_rate=3000.0, max_retries=10, seed=5)
        checkpointed = JobFaultPolicy(
            crash_rate=3000.0, max_retries=10, seed=5,
            checkpoint_iterations=1,
        )
        plain = run_cluster(
            tiny_topology(), self._jobs(1), self._config(job_faults=crashy)
        )
        ckpt = run_cluster(
            tiny_topology(), self._jobs(1),
            self._config(job_faults=checkpointed),
        )
        # Both runs crash at the same times initially (same substream);
        # the checkpointed run never re-runs a completed iteration, so it
        # can only finish earlier or equal.
        assert ckpt.jobs[0].finished
        assert plain.jobs[0].attempts >= 1
        if plain.jobs[0].finished:
            assert ckpt.jobs[0].finish_time <= plain.jobs[0].finish_time

    def test_deterministic_repeats(self):
        policy = JobFaultPolicy(crash_rate=2000.0, max_retries=3, seed=2)
        faults = FaultSchedule.flaps((0, 1), seed=2, mean_interval=1e-3,
                                     mean_duration=5e-4)
        config = self._config(job_faults=policy, link_faults=faults)
        a = run_cluster(tiny_topology(), self._jobs(), config)
        b = run_cluster(tiny_topology(), self._jobs(), config)
        assert [(j.finish_time, j.attempts, j.lost_work) for j in a.jobs] == [
            (j.finish_time, j.attempts, j.lost_work) for j in b.jobs
        ]

    def test_isolated_baselines_strip_faults(self):
        """rho compares the faulted shared run against a *healthy* solo."""
        faults = FaultSchedule((LinkFault(1, 0.0, 0.25),))
        healthy = run_cluster(
            tiny_topology(), self._jobs(1),
            self._config(isolated_baselines=True),
        )
        degraded = run_cluster(
            tiny_topology(), self._jobs(1),
            self._config(isolated_baselines=True, link_faults=faults),
        )
        assert degraded.jobs[0].isolated_time == pytest.approx(
            healthy.jobs[0].isolated_time
        )
        assert degraded.jobs[0].rho > healthy.jobs[0].rho

    def test_steady_state_counts_failures_without_nan(self):
        policy = JobFaultPolicy(crash_rate=5000.0, max_retries=0, seed=3)
        jobs = [
            JobSpec(name=f"j{i}", workload=tiny_workload(2.0, f"w{i}"),
                    arrival_time=i * 2e-4, iterations=1)
            for i in range(6)
        ]
        report = run_cluster(
            tiny_topology(), jobs,
            self._config(job_faults=policy, max_concurrent=2,
                         warmup_time=0.0, measure_time=0.5),
        )
        steady = report.steady_state
        assert steady is not None
        assert steady.failed_jobs + steady.completions >= 1
        for digest in (steady.jct, steady.rho, steady.queueing_delay):
            for value in digest.values():
                if isinstance(value, float):
                    assert not math.isnan(value)
        assert "failed" in steady.describe() or steady.failed_jobs == 0


# --- spec / API surface ------------------------------------------------------
class TestFaultSpec:
    def test_round_trip(self):
        spec = api.FaultSpec(
            links=({"dim_index": 0, "start": 1e-3, "factor": 0.5,
                    "duration": 1e-2},),
            straggler_dims=(1,),
            crash_rate=10.0,
            checkpoint_iterations=2,
            seed=9,
        )
        again = api.FaultSpec.from_dict(
            {f: getattr(spec, f) for f in (
                "links", "flap_dims", "flap_count", "flap_factor",
                "flap_mean_interval", "flap_mean_duration", "straggler_dims",
                "straggler_factor", "straggler_probability", "seed",
                "crash_rate", "max_retries", "backoff_base", "backoff_factor",
                "backoff_jitter", "checkpoint_iterations", "restart_overhead",
            )}
        )
        assert again == spec

    def test_unknown_key_did_you_mean(self):
        with pytest.raises(SpecError, match="crash_rate"):
            api.FaultSpec.from_dict({"crash_rat": 5.0})

    def test_bad_link_is_spec_error(self):
        with pytest.raises(SpecError, match="links"):
            api.FaultSpec(links=({"dim_index": 0, "start": -1, "factor": 0.5},))

    def test_to_runtime_composition(self):
        spec = api.FaultSpec(
            links=({"dim_index": 0, "start": 0.0, "factor": 0.5},),
            flap_dims=(1,), straggler_dims=(1,), crash_rate=5.0, seed=4,
        )
        schedule, policy = spec.to_runtime()
        assert schedule is not None and policy is not None
        assert policy.seed == 4
        dims = {event.dim_index for event in schedule.events}
        assert dims == {0, 1}

    def test_empty_spec_yields_nothing(self):
        schedule, policy = api.FaultSpec().to_runtime()
        assert schedule is None and policy is None

    def test_cluster_scenario_round_trip_with_faults(self):
        spec = api.ClusterScenario(
            topology="2D-SW_SW",
            trace={"workloads": ["dlrm"], "jobs": 2},
            faults={"straggler_dims": [0], "crash_rate": 1.0},
        )
        import json

        again = api.ClusterScenario.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert again == spec
        assert again.faults.crash_rate == 1.0

    def test_training_rejects_crash_rate(self):
        with pytest.raises(SpecError, match="crash_rate"):
            api.TrainingScenario(faults={"crash_rate": 1.0})

    def test_training_rejects_ideal_network_faults(self):
        with pytest.raises(SpecError, match="no links to degrade"):
            api.TrainingScenario(
                ideal_network=True,
                faults={"straggler_dims": [0]},
            )

    def test_training_link_faults_slow_the_run(self):
        base = api.TrainingScenario(
            workload="dlrm", topology="2D-SW_SW", iterations=1
        )
        degraded = api.TrainingScenario(
            workload="dlrm", topology="2D-SW_SW", iterations=1,
            faults={"links": [{"dim_index": 1, "start": 0.0, "factor": 0.25}]},
        )
        healthy_time = api.run(base).makespan
        degraded_time = api.run(degraded).makespan
        assert degraded_time > healthy_time


class TestFaultCli:
    def test_degrade_flag_runs(self, capsys):
        from repro.cli import main

        code = main([
            "cluster", "--topology", "2D-SW_SW", "--jobs", "1",
            "--workloads", "dlrm", "--degrade", "1:0.5:0.0001:0.001",
        ])
        assert code == 0
        assert "cluster on 2D-SW_SW" in capsys.readouterr().out

    def test_degrade_flag_rejects_garbage(self, capsys):
        from repro.cli import main

        assert main(["cluster", "--degrade", "bogus"]) == 1
        assert "--degrade expects" in capsys.readouterr().err

    def test_link_failure_flag_shape(self, capsys):
        from repro.cli import main

        assert main(["cluster", "--link-failure", "0:0.1:0.2:0.3"]) == 1
        assert "--link-failure expects" in capsys.readouterr().err

    def test_faults_with_experiment_flags_rejected(self, capsys):
        from repro.cli import main

        assert main(["cluster", "--fairness", "ftf",
                     "--degrade", "0:0.5:0.001"]) == 1
        assert "healthy-network" in capsys.readouterr().err


# --- the degraded-ring experiment -------------------------------------------
class TestDegradedExperiment:
    def _tiny_setup(self):
        jobs = [
            JobSpec(name=f"t{i}", workload=tiny_workload(8.0, f"w{i}"),
                    arrival_time=i * 1e-4, iterations=2)
            for i in range(3)
        ]
        severities = (
            ("healthy", None),
            ("degraded", {"links": [
                {"dim_index": 1, "start": 0.0, "factor": 0.25}
            ]}),
        )
        return jobs, severities

    def test_themis_beats_baseline_on_degraded_link(self):
        """The headline acceptance: on the degraded ring platform Themis
        wins mean JCT (it routes chunk load around the slow dimension)."""
        from repro.experiments import DEGRADED_SEVERITIES, run_degraded_comparison

        severities = tuple(
            entry for entry in DEGRADED_SEVERITIES
            if entry[0] in ("healthy", "soft-2x")
        )
        result = run_degraded_comparison(quick=True, severities=severities)
        assert result.themis_gain("soft-2x") > 1.0
        assert result.mean_jct("soft-2x") > result.mean_jct("healthy")

    def test_tiny_platform_degradation_curve(self):
        from repro.experiments import run_degraded_comparison

        jobs, severities = self._tiny_setup()
        result = run_degraded_comparison(
            topology=tiny_topology(), jobs=jobs, severities=severities
        )
        assert result.mean_jct("degraded") > result.mean_jct("healthy")
        assert result.degradation("degraded") > 1.0

    def test_bit_identical_repeats(self):
        from repro.experiments import run_degraded_comparison

        jobs, severities = self._tiny_setup()
        kwargs = dict(topology=tiny_topology(), jobs=jobs,
                      severities=severities, schedulers=("themis",))
        a = run_degraded_comparison(**kwargs)
        b = run_degraded_comparison(**kwargs)
        for key in a.reports:
            assert [j.finish_time for j in a.reports[key].jobs] == [
                j.finish_time for j in b.reports[key].jobs
            ]

    def test_render_mentions_gain(self):
        from repro.experiments import run_degraded_comparison

        jobs, severities = self._tiny_setup()
        text = run_degraded_comparison(
            topology=tiny_topology(), jobs=jobs, severities=severities
        ).render()
        assert "themis vs baseline (degraded)" in text
        assert "summary:" in text
