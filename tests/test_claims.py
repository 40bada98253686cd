"""The claims ledger: every number the paper states, measured here.

Each ledger row holds the paper's value, the value this repo measured when
the row was recorded, and a one-line note on any gap between the two.
``test_claim`` measures the row afresh and holds it within ``DRIFT`` of the
recorded value. The simulator is deterministic across CPython 3.10-3.13
(``ordered_sum``), so the band catches drift, not noise. A row may also
carry a bound against the paper (``band``), such as Fig. 11's 0.06. A
change that moves a simulated number on purpose re-records the rows it
moves and says so in CHANGES.md.

Below the ledger, plain tests keep the paper's qualitative claims on the
same runs: orderings, monotonicity, Fig. 9's busy rates, the Table 2 and
Sec. 6.3 verdicts, the ablations, offload, cluster contention and fairness.
Each experiment runs once per session; ``themis-sim fig N`` prints its table.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import pytest

from repro.analysis import ProvisioningVerdict, assess, classify_pair
from repro.collectives import (
    CollectiveRequest,
    CollectiveType,
    RingAlgorithm,
    offload_overrides,
    stage_plan,
)
from repro.core import SchedulerFactory, Splitter, achievable_utilization
from repro.core.ideal import IdealEstimator, LpIdealEstimator
from repro.experiments import (
    FAIRNESS_VARIANTS,
    PAPER_HEADLINES,
    Fig11Result,
    headline_from,
    run_cluster_contention,
    run_fairness_comparison,
    run_fig4,
    run_fig5,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig12,
)
from repro.experiments.fig4 import FIG4_TOPOLOGIES
from repro.sim import NetworkSimulator, bw_utilization
from repro.topology import Topology, dimension, get_topology, paper_topologies
from repro.training import TrainingConfig, simulate_training
from repro.units import GB, KB, MB
from repro.workloads import gnmt

# --- experiment runs (module scope: each runs once) -------------------------


@pytest.fixture(scope="module")
def fig5():
    return run_fig5()


@pytest.fixture(scope="module")
def fig8():
    return run_fig8(quick=False)


@pytest.fixture(scope="module")
def fig11(fig8):
    return Fig11Result(records=fig8.records)  # Fig. 11 reports Fig. 8's grid


@pytest.fixture(scope="module")
def fig12():
    return run_fig12(quick=True)


@pytest.fixture(scope="module")
def headline(fig12):
    # run_headline(quick=True) on the quick Fig. 12 grid simulated above.
    return headline_from(run_fig8(quick=True), fig12)


@pytest.fixture(scope="module")
def fig10():
    return run_fig10(quick=False)


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(quick=True)


# --- the ledger --------------------------------------------------------------

#: Relative band around each row's recorded value.
DRIFT = 0.02
INF = float("inf")


@dataclass(frozen=True)
class Claim:
    """One number the paper states, and how this repo measures it.

    The id's prefix, up to its first ``-``, names the fixture (the run) that
    measures it.
    """

    id: str
    measure: Callable[[Any], float]
    paper: float
    recorded: float
    #: Open interval the value must also lie in: a bound against the paper.
    band: tuple[float, float] = (-INF, INF)
    note: str = ""


def near(paper: float, tolerance: float) -> tuple[float, float]:
    return (paper - tolerance, paper + tolerance)


def abstract_numbers() -> dict[str, float]:
    """The abstract's 11 numbers (``PAPER_HEADLINES``), keyed by row id."""
    numbers = {
        f"headline-{key}": value
        for key, value in PAPER_HEADLINES.items()
        if key != "e2e"
    }
    for workload, (mean, peak) in PAPER_HEADLINES["e2e"].items():
        numbers[f"headline-e2e-{workload}-mean"] = mean
        numbers[f"headline-e2e-{workload}-max"] = peak
    return numbers


ABSTRACT = abstract_numbers()


def abstract(key: str, measure, recorded: float, **extra) -> Claim:
    """A row for one of the abstract's numbers; ``PAPER_HEADLINES`` holds it."""
    claim_id = f"headline-{key}"
    return Claim(claim_id, measure, ABSTRACT[claim_id], recorded, **extra)


def e2e(workload: str, stat: int) -> Callable[[Any], float]:
    return lambda result: result.e2e[workload][stat]


def mean_speedup(*key: str) -> Callable[[Any], float]:
    return lambda result: result.mean_speedup(*key)


def mean_util(*key) -> Callable[[Any], float]:
    return lambda result: result.mean_utilization(*key)


def gnmt_nextgen(result) -> list[float]:
    return [
        result.curve("GNMT", topo).baseline_utilization
        for topo in FIG4_TOPOLOGIES
        if topo != "current-2D"
    ]


UNEXPLAINED = "unexplained"
RESNET_GAP = (
    "the Ideal reaches only 1.07x (paper 1.54x): a Baseline 2D-SW_SW iteration "
    "is 17% exposed comm, and 1.54x needs >= 35% (ROADMAP item 8)"
)
GNMT_GAP = (
    "the Ideal reaches only 1.09x (paper 1.32x): the workload exposes too "
    "little communication (ROADMAP item 8)"
)
DLRM_GAP = "unexplained; the Ideal reaches 1.37x here (paper 1.33x)"

LEDGER: tuple[Claim, ...] = (
    # The abstract: Fig. 8's and Fig. 12's quick grids (run_headline).
    abstract("ar_speedup_mean", lambda r: r.ar_speedup_mean, 1.732, band=(1.4, INF)),
    abstract(
        "ar_speedup_max",
        lambda r: r.ar_speedup_max,
        2.771,
        band=(2.3, INF),
        note=UNEXPLAINED,
    ),
    abstract("scf_utilization", lambda r: r.scf_utilization, 0.9625, band=(0.9, INF)),
    abstract("e2e-ResNet-152-mean", e2e("ResNet-152", 0), 1.069, note=RESNET_GAP),
    abstract("e2e-ResNet-152-max", e2e("ResNet-152", 1), 1.180, note=RESNET_GAP),
    abstract("e2e-GNMT-mean", e2e("GNMT", 0), 1.089, note=GNMT_GAP),
    abstract("e2e-GNMT-max", e2e("GNMT", 1), 1.230, note=GNMT_GAP),
    abstract("e2e-DLRM-mean", e2e("DLRM", 0), 1.267, note=DLRM_GAP),
    abstract("e2e-DLRM-max", e2e("DLRM", 1), 1.692, note=DLRM_GAP),
    abstract("e2e-Transformer-1T-mean", e2e("Transformer-1T", 0), 1.273),
    abstract("e2e-Transformer-1T-max", e2e("Transformer-1T", 1), 1.544),
    # Fig. 8 and Fig. 11: the full grid.
    Claim(
        "fig8-fifo_speedup", mean_speedup("Themis+FIFO"), 1.58, 1.527, note=UNEXPLAINED
    ),
    Claim(
        "fig11-baseline", mean_util("Baseline"), 0.5631, 0.5660, band=near(0.5631, 0.06)
    ),
    Claim(
        "fig11-fifo",
        mean_util("Themis+FIFO"),
        0.8767,
        0.8537,
        band=near(0.8767, 0.06),
        note=UNEXPLAINED,
    ),
    Claim(
        "fig11-scf", mean_util("Themis+SCF"), 0.9514, 0.9678, band=near(0.9514, 0.06)
    ),
    # Fig. 12: the Ideal's mean speedup over the six topologies (quick grid).
    Claim(
        "fig12-ideal-ResNet-152",
        mean_speedup("ResNet-152", "Ideal"),
        1.54,
        1.072,
        note=RESNET_GAP,
    ),
    Claim(
        "fig12-ideal-GNMT", mean_speedup("GNMT", "Ideal"), 1.32, 1.091, note=GNMT_GAP
    ),
    Claim(
        "fig12-ideal-DLRM", mean_speedup("DLRM", "Ideal"), 1.33, 1.372, note=UNEXPLAINED
    ),
    Claim(
        "fig12-ideal-Transformer-1T",
        mean_speedup("Transformer-1T", "Ideal"),
        1.26,
        1.279,
    ),
    # Fig. 5 / Fig. 7: the worked example, in units of one dim1 Reduce-Scatter.
    Claim(
        "fig5-baseline_units",
        lambda r: r.baseline_units,
        8.0,
        8.0,
        band=near(8.0, 1e-6),
    ),
    Claim(
        "fig5-themis_units", lambda r: r.themis_units, 7.0, 7.0, band=near(7.0, 1e-6)
    ),
    Claim(
        "fig5-final_load_dim1",
        lambda r: r.load_evolution[-1][0],
        6.5,
        6.5,
        band=near(6.5, 1e-6),
    ),
    Claim(
        "fig5-final_load_dim2",
        lambda r: r.load_evolution[-1][1],
        7.0,
        7.0,
        band=near(7.0, 1e-6),
    ),
    # Fig. 4: the baseline's utilization dots (quick grid).
    Claim(
        "fig4-current_2d",
        lambda r: r.curve("GNMT", "current-2D").baseline_utilization,
        0.977,
        0.9832,
        note="aggregation: the GNMT dot on current-2D",
    ),
    Claim(
        "fig4-nextgen_min",
        lambda r: min(gnmt_nextgen(r)),
        0.351,
        0.3551,
        note="aggregation: GNMT, min over the six next-gen topologies",
    ),
    Claim(
        "fig4-nextgen_mean",
        lambda r: sum(gnmt_nextgen(r)) / len(gnmt_nextgen(r)),
        0.597,
        0.5661,
        note="aggregation: GNMT, mean over the six next-gen topologies; unexplained",
    ),
    # Fig. 10: Themis+SCF, mean over 3D-SW_SW_SW_hetero and 4D-Ring_FC_Ring_SW.
    Claim(
        "fig10-scf_512",
        mean_util("Themis+SCF", 512),
        0.912,
        0.9922,
        band=(0.85, INF),
        note=UNEXPLAINED,
    ),
)


@pytest.mark.parametrize("claim", LEDGER, ids=lambda claim: claim.id)
def test_claim(claim, request):
    run = request.getfixturevalue(claim.id.split("-", 1)[0])
    value = claim.measure(run)
    assert value == pytest.approx(claim.recorded, rel=DRIFT), (
        f"{claim.id}: measured {value:.4g}, recorded {claim.recorded:.4g} "
        f"(paper {claim.paper:.4g}); re-record the row if the move is intended"
    )
    low, high = claim.band
    assert low < value < high, f"{claim.id}: {value:.4g} outside {claim.band}"


def test_ledger_rows_every_abstract_number_once():
    ids = [claim.id for claim in LEDGER]
    assert len(ids) == len(set(ids)), "two ledger rows share an id"
    rows = {claim.id: claim for claim in LEDGER}
    for claim_id, paper in ABSTRACT.items():
        assert claim_id in rows, f"the abstract's {claim_id} has no ledger row"
        assert rows[claim_id].paper == paper


def test_every_gap_has_a_note():
    for claim in LEDGER:
        if abs(claim.recorded - claim.paper) > DRIFT * claim.paper:
            assert claim.note, f"{claim.id} misses the paper with no note"


# --- the paper's qualitative claims ------------------------------------------


def test_abstract_e2e_gains_stay_physical(headline):
    assert headline.baseline_utilization < 0.65
    # Every workload gains; each stays within the possible band (1x..max).
    for workload, (mean, peak) in headline.e2e.items():
        assert peak >= mean > 1.0, f"{workload}: {mean:.2f}/{peak:.2f}"


def test_fig8_full_grid(fig8):
    scf_mean = fig8.mean_speedup("Themis+SCF")
    assert scf_mean > 1.5, f"SCF mean speedup {scf_mean:.2f} (paper 1.72)"
    assert fig8.max_speedup("Themis+SCF") > 2.3, "paper max is 2.70"
    assert scf_mean >= fig8.mean_speedup("Themis+FIFO"), "SCF loses to FIFO"


def test_fig11_ordering_and_size_trend(fig11):
    baseline = fig11.mean_utilization("Baseline")
    fifo = fig11.mean_utilization("Themis+FIFO")
    assert baseline < fifo < fig11.mean_utilization("Themis+SCF")
    # Larger collectives are more BW-bound -> higher utilization (Sec. 6.1).
    sizes = sorted({r.size for r in fig11.records})

    def scf_mean(size):
        values = [
            r.utilization
            for r in fig11.records
            if r.size == size and r.scheduler == "Themis+SCF"
        ]
        return sum(values) / len(values)

    assert scf_mean(sizes[-1]) >= scf_mean(sizes[0])


def test_fig12_themis_near_its_ideal(fig12):
    for workload in fig12.workload_names():
        themis = fig12.mean_speedup(workload, "Themis+SCF")
        ideal = fig12.mean_speedup(workload, "Ideal")
        assert themis > 1.05, f"{workload}: Themis {themis:.2f}x over baseline"
        assert ideal >= themis - 0.02, f"{workload}: Ideal must bound Themis"
        # Themis captures most of the Ideal's headroom (paper: ~96% of it).
        assert themis > 1.0 + 0.6 * (ideal - 1.0), (
            f"{workload}: Themis {themis:.2f}x vs Ideal {ideal:.2f}x"
        )
    # Exposed communication is a large share of the communication-heavy
    # workloads' Baseline iteration.
    for workload in ("DLRM", "Transformer-1T"):
        report = fig12.report(workload, "3D-SW_SW_SW_homo", "Baseline")
        assert report.total.exposed_comm > 0.2 * report.total_time


def test_fig10_chunk_granularity(fig10):
    # Themis gains from finer chunking; the coarse 4-chunk point is weak.
    scf_4 = fig10.mean_utilization("Themis+SCF", 4)
    assert fig10.mean_utilization("Themis+SCF", 64) > scf_4 + 0.15
    assert fig10.mean_utilization("Themis+SCF", 512) > scf_4 + 0.2
    # Baseline is insensitive to chunk granularity (dim1 bottleneck first).
    base_4 = fig10.mean_utilization("Baseline", 4)
    assert abs(base_4 - fig10.mean_utilization("Baseline", 512)) < 0.1


def test_fig4_runtime_vs_utilization(fig4):
    for workload in sorted({w for w, _ in fig4.curves}):
        current = fig4.curve(workload, "current-2D")
        # The baseline is near-optimal on the current platform for the
        # pure data-parallel workloads; Transformer-1T's split MP/DP
        # communicators land a little lower.
        floor = 0.9 if workload != "Transformer-1T" else 0.7
        assert current.baseline_utilization > floor
        nextgen = [
            fig4.curve(workload, topo)
            for topo in FIG4_TOPOLOGIES
            if topo != "current-2D"
        ]
        utils = [curve.baseline_utilization for curve in nextgen]
        assert min(utils) < 0.45, "paper min is 35.1%"
        assert sum(utils) / len(utils) < 0.75, "paper average is 59.7%"
        # More utilization -> lower runtime; Inf is the floor.
        for curve in nextgen:
            assert curve.runtime_at(0.1) > curve.runtime_at(0.5) > curve.ideal_runtime
            assert curve.ideal_runtime > curve.inf_runtime
        # At the Ideal, next-gen platforms outperform the current one.
        assert min(c.ideal_runtime for c in nextgen) < current.ideal_runtime


def test_fig9_activity_rates():
    result = run_fig9()
    baseline = result.mean_rates["Baseline"]
    # Baseline: dim1 is the bottleneck stage; dim2/dim3 starve.
    assert baseline[0] > 0.95
    assert baseline[1] < 0.3 and baseline[2] < 0.3
    # Themis+SCF keeps every dimension busy nearly all the time ...
    assert all(rate > 0.9 for rate in result.mean_rates["Themis+SCF"])
    # ... and finishes faster than both others.
    assert result.makespans["Themis+SCF"] <= result.makespans["Themis+FIFO"]
    assert result.makespans["Themis+FIFO"] < result.makespans["Baseline"]


def test_table2_topologies():
    for topology in paper_topologies():
        assert topology.npus == 1024
        report = assess(topology)
        # None of the Table 2 systems is pathologically under-provisioned,
        assert report.max_utilization > 0.97
        # and the static baseline alone drives none of them fully.
        assert not report.baseline_efficient
    # The current 2D platform is the contrast case: near-just-enough.
    current = assess(get_topology("current-2D"))
    assert current.max_utilization == pytest.approx(1.0, abs=1e-6)


def _run_collective(
    topology,
    kind="themis",
    policy="SCF",
    *,
    size=GB,
    ctype=CollectiveType.ALL_REDUCE,
    overrides=None,
    **scheduler,
):
    """Simulate one collective; return (makespan, average BW utilization)."""
    sim = NetworkSimulator(
        topology,
        SchedulerFactory(kind, **scheduler),
        policy=policy,
        algorithm_overrides=overrides,
    )
    sim.submit(CollectiveRequest(ctype, size))
    result = sim.run()
    return result.makespan, bw_utilization(result).average


def test_sec63_provisioning_regimes():
    """Sec. 6.3: a 16x8 platform in each BW-distribution regime.

    Just enough (dim2 BW = dim1 BW / 16) is the greedy's corner: a reroute
    charges a dimension a chunk that earlier stages have not shrunk, which
    can overshoot the gap it closes. On a 1 GB All-Reduce Themis+SCF drives
    86% there against the baseline's 99.6%. The overshoot guard recovers it
    (``tests/test_extensions.py::TestOvershootGuard``).
    """
    rows = {}
    for ratio in (0.02, 0.0625, 0.25, 1.0):  # dim2's BW over dim1's
        topology = Topology(
            [
                dimension("sw", 16, 800.0, latency_ns=700),
                dimension("sw", 8, 800.0 * ratio, latency_ns=1700),
            ],
            name=f"16x8@{ratio:g}",
        )
        rows[ratio] = (
            classify_pair(topology, 0, 1).scenario,
            achievable_utilization(CollectiveType.ALL_REDUCE, topology),
            _run_collective(topology, "baseline", "FIFO")[1],
            _run_collective(topology)[1],
        )
    # Under-provisioned (dim2 starved): even the fluid bound is capped.
    assert rows[0.02][0] is ProvisioningVerdict.UNDER_PROVISIONED
    assert rows[0.02][1] < 0.9
    # Just enough: the baseline alone is near-perfect.
    assert rows[0.0625][0] is ProvisioningVerdict.JUST_ENOUGH
    assert rows[0.0625][2] > 0.9
    assert rows[0.0625][3] > 0.8
    # Over-provisioned: the baseline strands BW and Themis recovers most of
    # it; the more excess BW, the bigger the recovery.
    gains = {}
    for ratio in (0.25, 1.0):
        scenario, drivable, baseline, themis = rows[ratio]
        assert scenario is ProvisioningVerdict.OVER_PROVISIONED
        assert drivable == pytest.approx(1.0, abs=1e-6)
        assert themis > baseline + 0.05
        assert themis > 0.9
        gains[ratio] = themis - baseline
    assert gains[1.0] > gains[0.25]


def test_ablation_threshold_divisor():
    """The threshold guard (Algorithm 1 line 19) is robustness, not speed:
    neither an extreme divisor nor no guard at all collapses utilization."""
    topology = get_topology("3D-SW_SW_SW_hetero")
    utils = {
        divisor: _run_collective(topology, threshold_divisor=divisor)[1]
        for divisor in (None, 2.0, 16.0, 256.0)
    }
    assert utils[16.0] > 0.9
    for divisor, util in utils.items():
        assert util > 0.75, f"divisor {divisor}: {util:.1%}"


def test_ablation_intra_dim_policy():
    """SCF (the paper's choice) beats FIFO on average; LCF is the adversary."""
    utils = {}
    for policy in ("SCF", "FIFO", "LCF"):
        values = [
            _run_collective(topology, policy=policy, size=500 * MB)[1]
            for topology in paper_topologies()
        ]
        utils[policy] = sum(values) / len(values)
    assert utils["SCF"] >= utils["FIFO"] - 1e-9
    assert utils["SCF"] >= utils["LCF"] - 1e-9


def test_ablation_ideal_vs_lp():
    """The LP fluid bound confirms the simple Ideal on every Table 2 system."""
    for topology in paper_topologies():
        simple = IdealEstimator().collective_time(
            CollectiveType.ALL_REDUCE, GB, topology
        )
        fluid = LpIdealEstimator().collective_time(
            CollectiveType.ALL_REDUCE, GB, topology
        )
        assert fluid / simple < 1.05, topology.name


def test_ablation_dp_bucket_size():
    """In the paper's synchronous accounting, bucketing helps GNMT."""
    topology = get_topology("3D-SW_SW_SW_homo")

    def iteration_time(bucket):
        config = TrainingConfig(iterations=1, overlap_dp=False, dp_bucket_bytes=bucket)
        return simulate_training(gnmt(), topology, "themis", config).total_time

    assert iteration_time(100 * MB) <= iteration_time(None) * 1.02


def test_standalone_rs_ag_scheduling():
    """Sec. 4.1: standalone Reduce-Scatter and All-Gather have D! orders per
    chunk, and Themis recovers stranded BW for them as for All-Reduce."""
    topology = get_topology("3D-SW_SW_SW_homo")
    for ctype in (CollectiveType.REDUCE_SCATTER, CollectiveType.ALL_GATHER):
        baseline, _ = _run_collective(topology, "baseline", "FIFO", ctype=ctype)
        themis, util = _run_collective(topology, ctype=ctype)
        assert baseline / themis > 1.5, f"{ctype.value}: {baseline / themis:.2f}x"
        assert util > 0.85, f"{ctype.value}: {util:.1%}"


def test_offload_preserves_themis_benefit():
    """Sec. 4.5: switch offload cuts traffic and fixed delay but leaves the
    load imbalance, so Themis keeps its benefit."""
    for name in ("3D-SW_SW_SW_homo", "2D-SW_SW"):
        topology = get_topology(name)
        overrides = offload_overrides(topology)
        plain, _ = _run_collective(topology, "baseline", "FIFO")
        offloaded, _ = _run_collective(
            topology, "baseline", "FIFO", overrides=overrides
        )
        themis, _ = _run_collective(topology, overrides=overrides)
        assert offloaded < plain, f"{name}: offload must cut baseline time"
        assert offloaded / themis > 1.3, f"{name}: Themis benefit persists"


def test_goodput_packet_model():
    """Sec. 6.1's goodput argument on a 100 MB All-Reduce over 2D-SW_SW with
    4 KiB MTUs and 66 B headers: 64 chunks cost under 0.5% more wire bytes
    than 1 chunk, and finer chunking costs more."""
    topology = get_topology("2D-SW_SW").with_packet_model(4 * KB, 66.0)

    def wire_overhead(chunks: int) -> float:
        algorithm = RingAlgorithm()
        payload_total, wire_total = 0.0, 0.0
        for size in Splitter(chunks).split(100 * MB):
            for stage in stage_plan(CollectiveType.ALL_REDUCE, size, (0, 1), topology):
                dim = topology.dims[stage.dim_index]
                payload = algorithm.bytes_per_npu(stage.op, stage.stage_size, dim.size)
                payload_total += payload
                wire_total += dim.wire_bytes(payload, steps=dim.size - 1)
        return wire_total / payload_total - 1.0

    overhead = {chunks: wire_overhead(chunks) for chunks in (1, 64, 4096)}
    assert overhead[64] - overhead[1] < 0.005, "paper: <0.5% at 64 chunks"
    assert overhead[4096] > overhead[64], "finer chunking raises overhead"


def test_cluster_contention():
    """Four Poisson-arriving jobs share 3D-SW_SW_SW_homo: the single-job
    headline carries over, and all-Themis jobs drain the cluster at least
    as fast as all-Baseline jobs while driving the network harder."""
    result = run_cluster_contention(quick=True, n_jobs=4)
    for variant in ("Baseline", "Themis"):
        report = result.report(variant)
        assert len(report.jobs) == 4
        for job in report.jobs:
            assert job.jct > 0
            assert job.isolated_time is not None and job.isolated_time > 0
            # Sharing the network can only delay a job (tiny numerical slack).
            assert job.slowdown >= 0.98, f"{variant}/{job.name}: {job.slowdown:.3f}"
        assert report.makespan >= report.max_jct
        assert report.utilization is not None
        for util in report.utilization.per_dim:
            assert 0.0 < util <= 1.0
    assert result.mean_jct_speedup() >= 0.98
    assert result.makespan_speedup() >= 0.98
    assert (
        result.report("Themis").utilization.average
        >= result.report("Baseline").utilization.average
    )


def test_fairness_comparison():
    """The skewed elephant/mouse/urgent trace under each fairness policy:
    finish-time fairness beats FIFO on max rho and Jain's index, and
    preemption rescues the prioritized job but not the starved tenant."""
    result = run_fairness_comparison(quick=True)
    for policy in FAIRNESS_VARIANTS:
        report = result.report(policy)
        assert len(report.jobs) == 3
        for job in report.jobs:
            assert job.jct > 0
            assert job.rho is not None and job.rho >= 0.98
        assert report.jains_fairness_index is not None
        assert 0 < report.jains_fairness_index <= 1.0
    fifo = result.report("fifo")
    ftf = result.report("ftf")
    assert ftf.max_rho < fifo.max_rho
    assert ftf.jains_fairness_index > fifo.jains_fairness_index
    # Static weighted shares also cap the flood tenant.
    assert result.report("weighted").max_rho < fifo.max_rho
    preempt = result.report("preempt")
    assert preempt.job("urgent").rho == pytest.approx(1.0, abs=0.02)
    assert preempt.preemption_count > 0
    assert preempt.max_rho >= ftf.max_rho
