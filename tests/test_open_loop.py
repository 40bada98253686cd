"""Open-loop arrival workloads + steady-state measurement windows.

The statistical harness for the open-loop generator and the measurement
machinery: KS goodness-of-fit of the seeded samplers against their analytic
distributions, M/D/1 queueing-theory calibration of the measured queueing
delay, trace determinism (bit-identical per seed, disjoint substreams),
slot recycling under admission control, window-edge cases, and a golden
regression fixture pinning one small end-to-end report.

Every check runs on a fixed seed, so all of these are deterministic
pass/fail gates, not flaky monte-carlo tests.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from pathlib import Path

import pytest
from statutil import (
    exponential_cdf,
    ks_statistic,
    ks_threshold,
    md1_mean_wait,
    sample_mean,
)

from repro import api
from repro.cluster import (
    ARRIVAL_PROCESSES,
    BoundedPareto,
    ClusterConfig,
    ClusterSimulator,
    JobMix,
    JobSpec,
    derive_open_loop_rate,
    isolated_jct,
    open_loop_trace,
    stream_seed,
)
from repro.cluster.metrics import digest, epoch_means, jain_index, stationary
from repro.errors import ConfigError
from repro.sim import JobFaultPolicy
from repro.sim.audit import InvariantAuditor, InvariantViolation
from repro.topology import Topology, dimension
from repro.training import TrainingConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_open_loop.json"


def line_topology() -> Topology:
    """Smallest real platform: one 2-node switch dimension."""
    return Topology([dimension("sw", 2, 400.0, latency_ns=100)], name="line-2")


def fast_training() -> TrainingConfig:
    """Single-chunk splitter: a few events per collective, not hundreds."""
    return TrainingConfig(chunks_per_collective=1)


def deterministic_mix() -> JobMix:
    """Degenerate mix: every draw is the same 1-iteration mouse (M/D/1)."""
    return JobMix(
        elephant_fraction=0.0,
        mouse_layers=1,
        mouse_param_mb=0.5,
        min_iterations=1,
        max_iterations=1,
        size_alpha=None,
    )


# --- substreams --------------------------------------------------------------
class TestStreamSeed:
    def test_deterministic(self):
        assert stream_seed(42, "arrivals") == stream_seed(42, "arrivals")

    def test_labels_disjoint(self):
        seeds = {stream_seed(0, label) for label in ("arrivals", "sizes", "modulation")}
        assert len(seeds) == 3

    def test_seeds_disjoint(self):
        assert stream_seed(0, "arrivals") != stream_seed(1, "arrivals")

    def test_pinned_values(self):
        # SHA-256-derived, so these exact integers must hold on every
        # platform and Python version — the cross-process half of the
        # determinism contract (salted hash() would fail this).
        assert stream_seed(0, "arrivals") == 12198932670070183440
        assert stream_seed(0, "sizes") == 2398421392321137879


# --- bounded Pareto ----------------------------------------------------------
class TestBoundedPareto:
    def test_validation(self):
        with pytest.raises(ConfigError, match="alpha"):
            BoundedPareto(0.0, 1.0, 2.0)
        with pytest.raises(ConfigError, match="lower"):
            BoundedPareto(1.5, 0.0, 2.0)
        with pytest.raises(ConfigError, match="lower"):
            BoundedPareto(1.5, 3.0, 2.0)

    def test_cdf_shape(self):
        dist = BoundedPareto(1.5, 1.0, 10.0)
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(1.0) == 0.0
        assert dist.cdf(10.0) == 1.0
        assert dist.cdf(20.0) == 1.0
        grid = [1.0 + 9.0 * i / 50 for i in range(51)]
        values = [dist.cdf(x) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_ks_against_analytic_cdf(self):
        dist = BoundedPareto(1.5, 1.0, 10.0)
        rng = random.Random(7)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert all(1.0 <= s <= 10.0 for s in samples)
        stat = ks_statistic(samples, dist.cdf)
        assert stat < ks_threshold(len(samples), alpha=0.01)

    def test_sample_mean_tracks_analytic_mean(self):
        dist = BoundedPareto(1.5, 1.0, 10.0)
        rng = random.Random(3)
        samples = [dist.sample(rng) for _ in range(4000)]
        assert sample_mean(samples) == pytest.approx(dist.mean, rel=0.05)

    def test_alpha_one_mean(self):
        # The alpha == 1 branch uses the log-form expectation; check it
        # against a direct Monte-Carlo estimate of the same distribution.
        dist = BoundedPareto(1.0, 1.0, 8.0)
        rng = random.Random(5)
        samples = [dist.sample(rng) for _ in range(4000)]
        assert sample_mean(samples) == pytest.approx(dist.mean, rel=0.05)

    def test_degenerate_point_mass(self):
        dist = BoundedPareto(1.5, 4.0, 4.0)
        rng = random.Random(0)
        assert dist.sample(rng) == 4.0
        assert dist.mean == 4.0
        # The degenerate case still consumes exactly one uniform, keeping
        # downstream draws stream-aligned with non-degenerate configs.
        reference = random.Random(0)
        reference.random()
        assert rng.random() == reference.random()


# --- arrival processes -------------------------------------------------------
class TestArrivalProcesses:
    def test_poisson_interarrivals_are_exponential(self):
        rate = 100.0
        jobs = open_loop_trace(
            rate=rate, max_jobs=2000, mix=deterministic_mix(), seed=13
        )
        times = [job.arrival_time for job in jobs]
        gaps = [times[0]] + [b - a for a, b in zip(times, times[1:])]
        stat = ks_statistic(gaps, exponential_cdf(rate))
        assert stat < ks_threshold(len(gaps), alpha=0.01)

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_long_run_rate(self, process):
        rate, duration = 200.0, 40.0
        jobs = open_loop_trace(
            rate=rate,
            duration=duration,
            mix=deterministic_mix(),
            process=process,
            seed=2,
        )
        assert len(jobs) / duration == pytest.approx(rate, rel=0.10)

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_arrivals_sorted_and_bounded(self, process):
        start = 5.0
        jobs = open_loop_trace(
            rate=50.0,
            duration=10.0,
            mix=deterministic_mix(),
            process=process,
            seed=4,
            start_time=start,
        )
        times = [job.arrival_time for job in jobs]
        assert times == sorted(times)
        assert all(start <= t <= start + 10.0 for t in times)

    def test_max_jobs_cap(self):
        jobs = open_loop_trace(rate=50.0, max_jobs=17, mix=deterministic_mix())
        assert len(jobs) == 17

    def test_bursty_is_overdispersed(self):
        # Counts in fixed bins: a two-state MMPP has index of dispersion
        # (var/mean) well above the Poisson value of 1.
        def dispersion(process):
            jobs = open_loop_trace(
                rate=200.0,
                duration=50.0,
                mix=deterministic_mix(),
                process=process,
                seed=6,
                burst_on=0.5,
                burst_off=0.5,
                burst_ratio=8.0,
            )
            bins = [0] * 100
            for job in jobs:
                bins[min(99, int(job.arrival_time / 0.5))] += 1
            mean = sum(bins) / len(bins)
            var = sum((b - mean) ** 2 for b in bins) / len(bins)
            return var / mean

        assert dispersion("poisson") < 2.0
        assert dispersion("bursty") > 3.0

    def test_diurnal_peaks_beat_troughs(self):
        period = 10.0
        jobs = open_loop_trace(
            rate=200.0,
            duration=40.0,
            mix=deterministic_mix(),
            process="diurnal",
            seed=8,
            rate_amplitude=0.8,
            rate_period=period,
        )
        peak = trough = 0
        for job in jobs:
            phase = (job.arrival_time % period) / period
            if 0.0 <= phase < 0.5:  # sin positive: above-mean rate
                peak += 1
            else:
                trough += 1
        assert peak > 1.5 * trough


# --- trace determinism -------------------------------------------------------
def trace_fingerprint(jobs):
    return [
        (j.name, j.arrival_time, j.workload_name, j.scheduler, j.iterations)
        for j in jobs
    ]


class TestTraceDeterminism:
    MIX = JobMix(size_alpha=1.2, size_levels=3)

    def test_same_seed_bit_identical(self):
        kwargs = dict(rate=40.0, duration=5.0, mix=self.MIX, seed=9)
        assert trace_fingerprint(open_loop_trace(**kwargs)) == trace_fingerprint(
            open_loop_trace(**kwargs)
        )

    def test_different_seeds_differ(self):
        a = open_loop_trace(rate=40.0, duration=5.0, mix=self.MIX, seed=9)
        b = open_loop_trace(rate=40.0, duration=5.0, mix=self.MIX, seed=10)
        assert [j.arrival_time for j in a] != [j.arrival_time for j in b]

    def test_mix_change_does_not_move_arrivals(self):
        # Sizes draw from their own substream: a different mix yields the
        # exact same arrival skeleton.
        a = open_loop_trace(rate=40.0, duration=5.0, mix=self.MIX, seed=9)
        b = open_loop_trace(
            rate=40.0, duration=5.0, mix=deterministic_mix(), seed=9
        )
        assert [j.arrival_time for j in a] == [j.arrival_time for j in b]

    def test_process_change_does_not_reshuffle_sizes(self):
        # The i-th job's (class, rung, iterations) draw is indexed by
        # arrival order on the sizes substream, so switching the arrival
        # process leaves the per-index job population untouched.
        a = open_loop_trace(rate=40.0, duration=5.0, mix=self.MIX, seed=9)
        b = open_loop_trace(
            rate=40.0, duration=5.0, mix=self.MIX, seed=9, process="bursty"
        )
        common = min(len(a), len(b))
        assert common > 50
        draws_a = [(j.workload_name, j.iterations) for j in a[:common]]
        draws_b = [(j.workload_name, j.iterations) for j in b[:common]]
        assert draws_a == draws_b

    def test_scheduler_cycling(self):
        jobs = open_loop_trace(
            rate=40.0,
            max_jobs=6,
            mix=deterministic_mix(),
            schedulers=("baseline", "themis"),
            seed=1,
        )
        assert [j.scheduler for j in jobs] == ["baseline", "themis"] * 3

    def test_validation(self):
        mix = deterministic_mix()
        with pytest.raises(ConfigError, match="rate"):
            open_loop_trace(rate=0.0, duration=1.0, mix=mix)
        with pytest.raises(ConfigError, match="'duration' and/or 'max_jobs'"):
            open_loop_trace(rate=1.0, mix=mix)
        with pytest.raises(ConfigError, match="poisson, bursty, diurnal"):
            open_loop_trace(rate=1.0, duration=1.0, mix=mix, process="weibull")
        with pytest.raises(ConfigError, match="scheduler"):
            open_loop_trace(rate=1.0, duration=1.0, mix=mix, schedulers=())
        with pytest.raises(ConfigError, match="start_time"):
            open_loop_trace(rate=1.0, duration=1.0, mix=mix, start_time=-1.0)
        with pytest.raises(ConfigError, match="rate_amplitude"):
            open_loop_trace(
                rate=1.0, duration=1.0, mix=mix, process="diurnal",
                rate_amplitude=1.5,
            )
        with pytest.raises(ConfigError, match="burst_ratio"):
            open_loop_trace(
                rate=1.0, duration=1.0, mix=mix, process="bursty",
                burst_ratio=0.5,
            )

    def test_every_knob_checked_whatever_the_process(self):
        mix = deterministic_mix()
        with pytest.raises(ConfigError, match="burst_ratio"):
            open_loop_trace(rate=1.0, duration=1.0, mix=mix, burst_ratio=0.5)
        with pytest.raises(ConfigError, match="rate_period"):
            open_loop_trace(
                rate=1.0, duration=1.0, mix=mix, process="bursty",
                rate_period=math.nan,
            )
        with pytest.raises(ConfigError, match="duration"):
            open_loop_trace(rate=1.0, duration=math.inf, mix=mix)


class TestDeriveRate:
    def test_formula(self):
        # rho = rate * S / slots, solved for rate.
        assert derive_open_loop_rate(0.5, 2.0, 1) == pytest.approx(0.25)
        assert derive_open_loop_rate(0.5, 2.0, 4) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="target_rho"):
            derive_open_loop_rate(1.0, 2.0, 1)
        with pytest.raises(ConfigError, match="target_rho"):
            derive_open_loop_rate(0.0, 2.0, 1)
        with pytest.raises(ConfigError, match="service"):
            derive_open_loop_rate(0.5, 0.0, 1)
        with pytest.raises(ConfigError, match="slots"):
            derive_open_loop_rate(0.5, 2.0, 0)


# --- slot recycling ----------------------------------------------------------
class TestSlotRecycling:
    def run_k1(self, *, audit=False):
        mix = deterministic_mix()
        workload = mix.workload_pool()[("mouse", 0)]
        jobs = [
            JobSpec(name=f"j{i}", workload=workload, arrival_time=0.0)
            for i in range(4)
        ]
        config = ClusterConfig(
            training=fast_training(),
            isolated_baselines=False,
            max_concurrent=1,
            audit=audit or None,
        )
        return ClusterSimulator(line_topology(), jobs, config).run()

    def test_sequential_admission(self):
        report = self.run_k1()
        assert report.peak_live_jobs == 1
        assert len(report.finished_jobs) == 4
        by_name = {job.name: job for job in report.jobs}
        # FIFO admission order: j0 admitted at arrival, each later job
        # admitted exactly when its predecessor departs.
        assert by_name["j0"].queueing_delay == 0.0
        for earlier, later in zip("j0 j1 j2".split(), "j1 j2 j3".split()):
            assert by_name[later].queueing_delay > 0.0
            assert by_name[later].admit_time == pytest.approx(
                by_name[earlier].finish_time
            )

    def test_auditor_accepts_slot_recycling(self):
        # Same run under THEMIS_AUDIT-equivalent auditing: every slot is
        # taken and freed exactly once, so no job-slot invariant trips.
        report = self.run_k1(audit=True)
        assert len(report.finished_jobs) == 4

    def test_uncapped_admits_at_arrival(self):
        mix = deterministic_mix()
        workload = mix.workload_pool()[("mouse", 0)]
        jobs = [
            JobSpec(name=f"j{i}", workload=workload, arrival_time=0.0)
            for i in range(3)
        ]
        config = ClusterConfig(training=fast_training(), isolated_baselines=False)
        report = ClusterSimulator(line_topology(), jobs, config).run()
        assert report.peak_live_jobs == 3
        assert all(job.queueing_delay == 0.0 for job in report.jobs)


class TestAuditorJobSlotHooks:
    def test_double_admission_trips(self):
        auditor = InvariantAuditor()
        auditor.on_job_admitted("a", time=0.0, live=1, cap=None)
        with pytest.raises(InvariantViolation, match="admitted twice"):
            auditor.on_job_admitted("a", time=1.0, live=2, cap=None)

    def test_depart_without_admission_trips(self):
        auditor = InvariantAuditor()
        with pytest.raises(InvariantViolation, match="without being admitted"):
            auditor.on_job_departed("ghost", time=0.0, live=0)

    def test_slot_freed_twice_trips(self):
        auditor = InvariantAuditor()
        auditor.on_job_admitted("a", time=0.0, live=1, cap=None)
        auditor.on_job_departed("a", time=1.0, live=0)
        with pytest.raises(InvariantViolation, match="freed its slot twice"):
            auditor.on_job_departed("a", time=2.0, live=-1)

    def test_cap_overrun_trips(self):
        auditor = InvariantAuditor()
        auditor.on_job_admitted("a", time=0.0, live=1, cap=2)
        auditor.on_job_admitted("b", time=0.0, live=2, cap=2)
        with pytest.raises(InvariantViolation, match="above the"):
            auditor.on_job_admitted("c", time=0.0, live=3, cap=2)

    def test_negative_live_count_trips(self):
        auditor = InvariantAuditor()
        auditor.on_job_admitted("a", time=0.0, live=1, cap=None)
        with pytest.raises(InvariantViolation, match="negative"):
            auditor.on_job_departed("a", time=1.0, live=-1)


# --- measurement windows -----------------------------------------------------
class TestMeasurementWindow:
    def test_zero_jobs_in_window(self):
        # All activity ends long before the window opens: the report must
        # come back NaN-free with measured_jobs == 0, not crash.
        mix = deterministic_mix()
        workload = mix.workload_pool()[("mouse", 0)]
        jobs = [JobSpec(name="early", workload=workload, arrival_time=0.0)]
        config = ClusterConfig(
            training=fast_training(),
            isolated_baselines=False,
            warmup_time=10.0,
            measure_time=1.0,
        )
        report = ClusterSimulator(line_topology(), jobs, config).run()
        steady = report.steady_state
        assert steady is not None
        assert steady.measured_jobs == 0
        assert steady.arrivals == 0
        assert steady.jct.get("mean") is None
        assert steady.stationary is None
        # json with allow_nan=False rejects NaN/inf: the whole payload
        # must serialize as strict JSON.
        json.dumps(steady.to_dict(), allow_nan=False)
        text = steady.describe()
        assert "undefined" in text
        assert "nan" not in text.lower()
        assert text in report.describe()

    def test_window_stops_run_without_deadlock(self):
        mix = deterministic_mix()
        service = self.service_time()
        rate = derive_open_loop_rate(0.5, service, 1)
        jobs = open_loop_trace(
            rate=rate, duration=400 * service, mix=mix, seed=21
        )
        config = ClusterConfig(
            training=fast_training(),
            isolated_baselines=False,
            max_concurrent=1,
            warmup_time=20 * service,
            measure_time=100 * service,
        )
        report = ClusterSimulator(line_topology(), jobs, config).run()
        # The run stops at the window end even though the trace extends
        # four times farther; in-flight jobs are expected, not a deadlock.
        assert report.stopped_at == pytest.approx(120 * service)
        assert not report.truncated
        assert report.steady_state.arrivals > 0
        assert report.steady_state.measured_jobs > 0
        assert report.total_jobs == len(jobs)

    def test_outcome_cap_releases_but_still_counts(self):
        mix = deterministic_mix()
        workload = mix.workload_pool()[("mouse", 0)]
        jobs = [
            JobSpec(name=f"j{i}", workload=workload, arrival_time=0.0)
            for i in range(5)
        ]
        config = ClusterConfig(
            training=fast_training(),
            isolated_baselines=False,
            max_concurrent=1,
            warmup_time=0.0,
            measure_time=1.0,
            outcome_cap=2,
        )
        report = ClusterSimulator(line_topology(), jobs, config).run()
        finished = report.finished_jobs
        assert len(finished) == 5
        with_breakdowns = [job for job in finished if job.iterations]
        released = [job for job in finished if not job.iterations]
        assert len(with_breakdowns) == 2
        assert len(released) == 3
        # Released outcomes keep their times: the window report counts all 5.
        assert all(job.finish_time is not None for job in released)
        assert report.steady_state.completions == 5

    def test_steady_state_matches_job_records(self):
        # Isolated baselines (one solo run per workload and iteration count)
        # and a crash policy: the window report must equal a brute-force
        # recount of the per-job rows.
        mix = JobMix(
            elephant_fraction=0.3,
            elephant_layers=2,
            elephant_param_mb=2.0,
            mouse_layers=1,
            mouse_param_mb=0.5,
            max_iterations=3,
        )
        jobs = open_loop_trace(rate=15000.0, duration=0.004, mix=mix, seed=4)
        config = ClusterConfig(
            training=fast_training(),
            max_concurrent=2,
            warmup_time=0.0008,
            measure_time=0.0027,
            convergence_epochs=4,
            job_faults=JobFaultPolicy(
                crash_rate=6000.0, max_retries=1, backoff_base=1e-4, seed=3
            ),
        )
        report = ClusterSimulator(line_topology(), jobs, config).run()
        steady = report.steady_state
        start, end = 0.0008, 0.0008 + 0.0027

        def inside(time):
            return time is not None and start <= time <= end

        completed = [job for job in report.jobs if inside(job.finish_time)]
        measured = [job for job in completed if job.arrival_time >= start]
        assert steady.arrivals == sum(inside(job.arrival_time) for job in report.jobs)
        assert steady.completions == len(completed) > len(measured)
        assert steady.measured_jobs == len(measured)
        assert steady.failed_jobs == sum(
            job.failed and inside(job.fail_time) for job in report.jobs
        )
        assert 0 < steady.failed_jobs < len(report.failed_jobs)

        def check(summary, values):
            values = sorted(values)
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            assert summary["count"] == len(values)
            assert (summary["min"], summary["max"]) == (values[0], values[-1])
            assert summary["mean"] == pytest.approx(math.fsum(values) / len(values))
            for key, cut in (("p50", cuts[49]), ("p95", cuts[94]), ("p99", cuts[98])):
                assert summary[key] == pytest.approx(cut)

        rhos = [job.rho for job in measured]
        check(steady.jct, [job.jct for job in measured])
        check(steady.queueing_delay, [job.queueing_delay for job in measured])
        check(steady.rho, rhos)
        assert steady.queueing_delay["max"] > 0.0
        assert steady.jain_rho == pytest.approx(
            math.fsum(rhos) ** 2 / (len(rhos) * math.fsum(r * r for r in rhos))
        )
        length = (end - start) / 4
        epochs = [[] for _ in range(4)]
        for job in measured:
            epochs[min(3, int((job.finish_time - start) / length))].append(job.rho)
        assert steady.epoch_metric == "rho"
        assert steady.epoch_counts == tuple(len(epoch) for epoch in epochs)
        means = [math.fsum(epoch) / len(epoch) for epoch in epochs]
        assert list(steady.epoch_series) == pytest.approx(means)
        first, second = math.fsum(means[:2]) / 2, math.fsum(means[2:]) / 2
        assert steady.stationary == (abs(second - first) <= 0.25 * max(first, second))

        def live_seconds(job):
            leave = job.finish_time or job.fail_time or end
            return max(0.0, min(leave, end) - max(job.admit_time or end, start))

        assert steady.mean_live_jobs == pytest.approx(
            math.fsum(map(live_seconds, report.jobs)) / (end - start)
        )
        assert steady.slot_utilization == pytest.approx(steady.mean_live_jobs / 2)
        assert steady.peak_live_jobs == report.peak_live_jobs

    def service_time(self) -> float:
        mix = deterministic_mix()
        workload = mix.workload_pool()[("mouse", 0)]
        return isolated_jct(
            line_topology(),
            JobSpec(name="solo", workload=workload, iterations=1),
            ClusterConfig(training=fast_training(), isolated_baselines=False),
        )


# --- queueing-theory calibration --------------------------------------------
class TestMD1Calibration:
    """Measured mean queueing delay tracks the M/D/1 analytic prediction.

    With a degenerate mix (identical 1-iteration jobs), one admission slot,
    and Poisson arrivals, the cluster *is* an M/D/1 queue: the only job
    running holds the network alone, so its service time is exactly the
    isolated JCT.  Pollaczek-Khinchine then predicts the mean wait, and the
    measured window statistic must land on it — the end-to-end check that
    rate calibration, admission control, slot recycling, and window-scoped
    measurement compose correctly.
    """

    @pytest.mark.parametrize("rho", [0.3, 0.6])
    def test_mean_wait_tracks_analytic(self, rho):
        topology = line_topology()
        mix = deterministic_mix()
        training = fast_training()
        workload = mix.workload_pool()[("mouse", 0)]
        service = isolated_jct(
            topology,
            JobSpec(name="solo", workload=workload, iterations=1),
            ClusterConfig(training=training, isolated_baselines=False),
        )
        rate = derive_open_loop_rate(rho, service, 1)
        measured_target = 1500
        measure = measured_target / rate
        warmup = 60 * service
        jobs = open_loop_trace(
            rate=rate,
            duration=warmup + measure + 10 * service,
            mix=mix,
            seed=11,
        )
        config = ClusterConfig(
            training=training,
            isolated_baselines=False,
            max_concurrent=1,
            warmup_time=warmup,
            measure_time=measure,
            outcome_cap=0,
        )
        report = ClusterSimulator(topology, jobs, config).run()
        steady = report.steady_state
        assert steady.measured_jobs > 1000
        # Bounded memory: thousands of arrivals, never more than the one
        # admitted job plus whatever the FIFO queue holds as *queued*
        # drivers — peak live (admitted) jobs is exactly the slot count.
        assert report.peak_live_jobs == 1
        analytic = md1_mean_wait(rho, service)
        assert steady.queueing_delay["mean"] == pytest.approx(analytic, rel=0.25)
        # Measured slot occupancy is the empirical offered load.
        assert steady.slot_utilization == pytest.approx(rho, abs=0.05)


# --- window digests ----------------------------------------------------------
class TestDigest:
    def test_exact_moments(self):
        summary = digest([float(v) for v in range(1, 101)])
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0

    def test_interpolated_percentiles(self):
        summary = digest([float(v) for v in range(100, 0, -1)])
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)
        single = digest([7.0])
        assert single["p50"] == single["p99"] == 7.0

    def test_percentiles_exact_past_4096_values(self):
        # Every value is kept, so a large window's percentiles are exact,
        # not a sample's estimate.
        values = [float(v) for v in range(5000)]
        random.Random(3).shuffle(values)
        summary = digest(values)
        assert summary["count"] == 5000
        assert summary["mean"] == 2499.5
        assert (summary["min"], summary["max"]) == (0.0, 4999.0)
        assert summary["p50"] == 2499.5
        assert summary["p95"] == pytest.approx(0.95 * 4999, abs=1e-9)
        assert summary["p99"] == pytest.approx(0.99 * 4999, abs=1e-9)

    def test_jain_over_equal_values(self):
        assert jain_index([2.0] * 1000) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0]) == pytest.approx(0.5)
        assert jain_index([]) is None

    def test_empty_digest_is_none_not_nan(self):
        summary = digest([])
        assert summary["count"] == 0
        assert all(
            summary[key] is None for key in ("mean", "min", "max", "p50", "p95", "p99")
        )
        json.dumps(summary, allow_nan=False)


class TestEpochMeans:
    def test_series_and_clamping(self):
        samples = [(0.5, 1.0), (1.5, 2.0), (1.6, 4.0)]
        samples.append((99.0, 8.0))  # past the window: clamped into the last epoch
        series, counts = epoch_means(samples, 0.0, 4.0, 4)
        assert series == (1.0, 3.0, None, 8.0)
        assert counts == (1, 2, 0, 1)

    def test_stationary_verdicts(self):
        flat, _ = epoch_means([(e + 0.5, 1.0) for e in range(4)], 0.0, 4.0, 4)
        assert stationary(flat) is True
        drifting, _ = epoch_means(
            [(e + 0.5, v) for e, v in enumerate([1.0, 1.0, 10.0, 10.0])], 0.0, 4.0, 4
        )
        assert stationary(drifting) is False
        sparse, _ = epoch_means([(0.5, 1.0)], 0.0, 4.0, 4)
        assert stationary(sparse) is None


# --- golden regression fixture ----------------------------------------------
def golden_scenario() -> api.ClusterScenario:
    """The pinned end-to-end run: small, windowed, fully seeded."""
    return api.ClusterScenario(
        topology="2D-SW_SW",
        open_loop=api.OpenLoopTrace(
            rate=4000.0,
            duration=0.08,
            seed=5,
            mix={
                "elephant_fraction": 0.2,
                "elephant_param_mb": 2.0,
                "mouse_param_mb": 0.5,
                "max_iterations": 3,
            },
        ),
        max_concurrent=2,
        warmup_time=0.01,
        measure_time=0.07,
        outcome_cap=0,
        isolated_per_iteration=True,
        convergence_epochs=4,
        chunks=2,
    )


def golden_subset(payload: dict) -> dict:
    """The stable slice of the report the fixture pins.

    Floats are rounded to 9 significant digits so the fixture tolerates
    JSON round-tripping, while any real timeline change (different event
    order, different admission decision) still shows up.
    """

    def sig(value):
        if isinstance(value, float):
            return float(f"{value:.9g}")
        return value

    steady = payload["steady_state"]
    return {
        "topology": payload["topology"],
        "arrival_rate": sig(payload["arrival_rate"]),
        "total_jobs": payload["total_jobs"],
        "peak_live_jobs": payload["peak_live_jobs"],
        "stopped_at": sig(payload["stopped_at"]),
        "arrivals": steady["arrivals"],
        "completions": steady["completions"],
        "measured_jobs": steady["measured_jobs"],
        "mean_rho": sig(steady["rho"]["mean"]),
        "p95_jct": sig(steady["jct"]["p95"]),
        "mean_queueing_delay": sig(steady["queueing_delay"]["mean"]),
        "epoch_counts": list(steady["epoch_counts"]),
        "first_jobs": [
            {
                "name": row["name"],
                "arrival_time": sig(row["arrival_time"]),
                "finish_time": sig(row["finish_time"]),
                "scheduler": row["scheduler"],
            }
            for row in payload["jobs"][:5]
        ],
    }


class TestGoldenTrace:
    def test_report_matches_fixture(self):
        fixture = json.loads(GOLDEN_PATH.read_text())
        report = api.run(golden_scenario())
        assert golden_subset(report.payload) == fixture
