"""Ablation benches for Themis design choices called out in DESIGN.md.

* threshold guard (Algorithm 1 line 19) on/off and divisor sweep,
* intra-dimension policy: FIFO vs SCF vs LCF (adversarial),
* mirrored-AG assumption: LP fluid bound vs the paper's simple Ideal,
* DP bucket size in end-to-end training.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table, pct, ratio
from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import SchedulerFactory, Splitter, ThemisScheduler
from repro.core.ideal import IdealEstimator, LpIdealEstimator
from repro.sim import NetworkSimulator, bw_utilization
from repro.topology import get_topology, paper_topologies
from repro.training import TrainingConfig, simulate_training
from repro.units import GB, MB
from repro.workloads import gnmt


def _run_ar(topology, scheduler_factory, policy="SCF", size=GB):
    sim = NetworkSimulator(topology, scheduler_factory, policy=policy)
    sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, size))
    result = sim.run()
    return result.makespan, bw_utilization(result).average


@pytest.mark.benchmark(group="ablation-threshold")
def test_ablation_threshold_divisor(benchmark, save_result):
    """The threshold guard is robustness, not speed: disabling it should
    not collapse utilization on the paper topologies, and the default (16)
    should be at least as good as extreme settings."""
    topology = get_topology("3D-SW_SW_SW_hetero")

    def sweep():
        rows = []
        for divisor in (None, 2.0, 16.0, 256.0):
            factory = SchedulerFactory("themis", threshold_divisor=divisor)
            makespan, util = _run_ar(topology, factory)
            rows.append((divisor, makespan, util))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result(
        "ablation_threshold",
        "Threshold-divisor ablation (1GB AR, 3D-SW_SW_SW_hetero)\n"
        + format_table(
            ["divisor", "makespan", "util"],
            [(str(d), f"{m * 1e3:.3f}ms", u) for d, m, u in rows],
            [str, str, pct],
        ),
    )
    utils = {d: u for d, _m, u in rows}
    assert utils[16.0] > 0.9
    for divisor, util in utils.items():
        assert util > 0.75, f"divisor {divisor}: {util:.1%}"


@pytest.mark.benchmark(group="ablation-policy")
def test_ablation_intra_dim_policy(benchmark, save_result):
    """SCF (paper's choice) beats FIFO on average; LCF is the adversary."""

    def sweep():
        rows = []
        for policy in ("SCF", "FIFO", "LCF"):
            utils = []
            for topology in paper_topologies():
                factory = SchedulerFactory("themis")
                _, util = _run_ar(topology, factory, policy=policy, size=500 * MB)
                utils.append(util)
            rows.append((policy, sum(utils) / len(utils)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result(
        "ablation_policy",
        "Intra-dimension policy ablation (500MB AR, mean over Table 2)\n"
        + format_table(["policy", "mean util"], rows, [str, pct]),
    )
    utils = dict(rows)
    assert utils["SCF"] >= utils["FIFO"] - 1e-9
    assert utils["SCF"] >= utils["LCF"] - 1e-9


@pytest.mark.benchmark(group="ablation-ideal")
def test_ablation_ideal_vs_lp(benchmark, save_result):
    """On every Table 2 topology the LP fluid bound confirms the simple
    Ideal is achievable (no under-provisioned pair)."""

    def sweep():
        rows = []
        for topology in paper_topologies():
            simple = IdealEstimator().collective_time(
                CollectiveType.ALL_REDUCE, GB, topology
            )
            fluid = LpIdealEstimator().collective_time(
                CollectiveType.ALL_REDUCE, GB, topology
            )
            rows.append((topology.name, simple, fluid, fluid / simple))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result(
        "ablation_ideal_vs_lp",
        "Ideal vs LP fluid bound (1GB AR)\n"
        + format_table(
            ["topology", "Ideal", "LP fluid", "gap"],
            [(n, f"{a * 1e3:.3f}ms", f"{b * 1e3:.3f}ms", g) for n, a, b, g in rows],
            [str, str, str, ratio],
        ),
    )
    for name, _simple, _fluid, gap in rows:
        assert gap < 1.05, f"{name}: fluid bound {gap:.3f}x above Ideal"


@pytest.mark.benchmark(group="ablation-bucket")
def test_ablation_dp_bucket_size(benchmark, save_result):
    """Bigger DP buckets -> bigger collectives -> higher utilization, at
    the cost of overlap (with overlap enabled).  In the paper's sync
    accounting, bucketing strictly helps GNMT."""
    topology = get_topology("3D-SW_SW_SW_homo")

    def sweep():
        rows = []
        for bucket in (None, 25 * MB, 100 * MB, 500 * MB):
            config = TrainingConfig(
                iterations=1, overlap_dp=False, dp_bucket_bytes=bucket
            )
            report = simulate_training(gnmt(), topology, "themis", config)
            label = "per-layer" if bucket is None else f"{bucket / MB:.0f}MB"
            rows.append((label, report.total_time, report.avg_bw_utilization))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result(
        "ablation_dp_bucket",
        "DP bucket-size ablation (GNMT, 3D-SW_SW_SW_homo, Themis+SCF)\n"
        + format_table(
            ["bucket", "iteration time", "util"],
            [(l, f"{t * 1e3:.2f}ms", u) for l, t, u in rows],
            [str, str, pct],
        ),
    )
    times = {label: t for label, t, _u in rows}
    assert times["100MB"] <= times["per-layer"] * 1.02


@pytest.mark.benchmark(group="ablation-scheduler")
def test_scheduler_planning_throughput(benchmark):
    """Pure scheduler-side cost: Algorithm 1 planning a 64-chunk AR on a
    4D topology.  This is the overhead a real collective library would pay
    per collective (amortized across iterations per Sec. 4.6)."""
    topology = get_topology("4D-Ring_FC_Ring_SW")
    scheduler = ThemisScheduler(Splitter(64))
    request = CollectiveRequest(CollectiveType.ALL_REDUCE, GB)

    plan = benchmark(lambda: scheduler.plan(request, topology))
    assert plan.nchunks == 64


@pytest.mark.benchmark(group="ablation-rsag")
def test_standalone_rs_ag_scheduling(benchmark, save_result):
    """Sec. 4.1: pure Reduce-Scatter / All-Gather have D! schedules per
    chunk (no mirrored second phase).  Themis must recover stranded BW for
    them exactly as it does for All-Reduce."""
    from repro.collectives import CollectiveType

    topology = get_topology("3D-SW_SW_SW_homo")

    def sweep():
        rows = []
        for ctype in (CollectiveType.REDUCE_SCATTER, CollectiveType.ALL_GATHER):
            times = {}
            for kind, policy in (("baseline", "FIFO"), ("themis", "SCF")):
                sim = NetworkSimulator(
                    topology, SchedulerFactory(kind), policy=policy
                )
                sim.submit(CollectiveRequest(ctype, GB))
                result = sim.run()
                times[kind] = (result.makespan, bw_utilization(result).average)
            rows.append(
                (
                    ctype.value,
                    times["baseline"][0],
                    times["themis"][0],
                    times["baseline"][0] / times["themis"][0],
                    times["themis"][1],
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result(
        "ablation_rs_ag",
        "Standalone RS/AG scheduling (1GB, 3D-SW_SW_SW_homo)\n"
        + format_table(
            ["collective", "baseline", "Themis+SCF", "speedup", "Themis util"],
            [
                (c, f"{b * 1e3:.2f}ms", f"{t * 1e3:.2f}ms", s, u)
                for c, b, t, s, u in rows
            ],
            [str, str, str, ratio, pct],
        ),
    )
    for ctype_name, _b, _t, speedup, util in rows:
        assert speedup > 1.5, f"{ctype_name}: {speedup:.2f}x"
        assert util > 0.85, f"{ctype_name}: {util:.1%}"
