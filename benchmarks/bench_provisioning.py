"""Bench: Sec. 6.3 — BW-distribution scenarios for system designers.

Sweeps the dim2:dim1 bandwidth ratio of a 16x8 platform through the
under-provisioned / just-enough / over-provisioned regimes and verifies
each regime's defining property.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    ProvisioningVerdict,
    classify_pair,
    format_table,
    pct,
)
from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import SchedulerFactory, achievable_utilization
from repro.sim import NetworkSimulator, bw_utilization
from repro.topology import Topology, dimension
from repro.units import GB

RATIOS = (0.02, 0.0625, 0.25, 1.0)


def build(ratio: float) -> Topology:
    return Topology(
        [
            dimension("sw", 16, 800.0, latency_ns=700),
            dimension("sw", 8, 800.0 * ratio, latency_ns=1700),
        ],
        name=f"16x8@{ratio:g}",
    )


def run_sweep():
    rows = []
    for ratio in RATIOS:
        topology = build(ratio)
        verdict = classify_pair(topology, 0, 1)
        drivable = achievable_utilization(CollectiveType.ALL_REDUCE, topology)
        measured = {}
        for kind, policy in (("baseline", "FIFO"), ("themis", "SCF")):
            sim = NetworkSimulator(topology, SchedulerFactory(kind), policy=policy)
            sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, GB))
            measured[kind] = bw_utilization(sim.run()).average
        rows.append((ratio, verdict.scenario, drivable,
                     measured["baseline"], measured["themis"]))
    return rows


@pytest.mark.benchmark(group="provisioning")
def test_provisioning_scenarios(benchmark, save_result):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = format_table(
        ["dim2/dim1 BW", "scenario", "LP bound", "baseline", "Themis+SCF"],
        [(f"{r[0]:g}", r[1].value, r[2], r[3], r[4]) for r in rows],
        [str, str, pct, pct, pct],
    )
    save_result("provisioning_scenarios", "Sec 6.3: BW distribution sweep\n" + table)

    by_ratio = {r[0]: r for r in rows}
    # Under-provisioned (dim2 starved): even the fluid bound is capped.
    assert by_ratio[0.02][1] is ProvisioningVerdict.UNDER_PROVISIONED
    assert by_ratio[0.02][2] < 0.9
    # Just enough: baseline alone is near-perfect (Themis's greedy reroute
    # granularity can cost a few points here; see EXPERIMENTS.md).
    assert by_ratio[0.0625][1] is ProvisioningVerdict.JUST_ENOUGH
    assert by_ratio[0.0625][3] > 0.9
    assert by_ratio[0.0625][4] > 0.8
    # Over-provisioned: baseline strands BW, Themis recovers most of it —
    # the more excess BW, the bigger the recovery.
    gains = {}
    for ratio in (0.25, 1.0):
        _, scenario, drivable, baseline, themis = by_ratio[ratio]
        assert scenario is ProvisioningVerdict.OVER_PROVISIONED
        assert drivable == pytest.approx(1.0, abs=1e-6)
        assert themis > baseline + 0.05
        assert themis > 0.9
        gains[ratio] = themis - baseline
    assert gains[1.0] > gains[0.25]
