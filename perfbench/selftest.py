"""Tests of the benchmark's own code.

Run with ``python3 -m pytest perfbench/selftest.py -q`` (the file name keeps
them out of the repository's tier-1 collection; the fairness workload makes
them take about ten seconds).
"""

from __future__ import annotations

import json
import re
import signal
import time

import hostspeed
import pytest
import run
import tracer as tracing
import workloads
from repro import api

NAME = re.compile(r"[A-Za-z0-9_.-]+")
HOST_METRICS = {"wall_s", "setup_s", "peak_rss_mb"}
UNTRACED_LAYER_METRICS = {"engine.events_per_s", "trace.overhead_s"}


def definition() -> dict:
    return json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_complete():
    bench = definition()
    end_to_end = {metric["name"] for metric in bench["end_to_end"]}
    per_layer = {metric["name"] for metric in bench["per_layer"]}
    for name in end_to_end | per_layer | set(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name
    assert end_to_end == HOST_METRICS | set(workloads.SIM_METRICS)
    produced = tracing.layer_metrics(tracing.Tracer("empty"), "bench.run")
    assert per_layer == set(produced) | UNTRACED_LAYER_METRICS
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def run_once(workload, tracer=None):
    with hostspeed.SpeedMeter() as meter:
        outcome = run.repeat_once(workload, meter, tracer).outcome
    assert outcome.failed == 0, outcome.problems
    return outcome


def test_same_seed_gives_identical_sim_values_traced_or_not():
    first = workloads.FairnessFtf(3)
    second = workloads.FairnessFtf(3)
    assert first.inputs() == second.inputs()
    reference = first.reference()
    untraced = first.sim_metrics(run_once(first).observed, reference)
    again = second.sim_metrics(run_once(second).observed, reference)
    traced = second.sim_metrics(
        run_once(second, tracing.Tracer("t")).observed, reference
    )
    assert untraced == again == traced
    assert set(untraced) == set(workloads.SIM_METRICS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert cls(0).inputs() == cls(0).inputs()
    assert cls(0).inputs() != cls(1).inputs()


def test_default_seed_reproduces_bench_scaling_inputs():
    reference = workloads.bench_scaling.make_jobs(32, 2)
    assert workloads.FairnessFtf(0).arrivals == [j.arrival_time for j in reference]
    assert workloads.FluidOpenLoop(0).trace_seed == workloads.FLUID_TRACE_SEED


def test_self_time_on_a_hand_built_span_tree():
    ticks = iter([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.5, 9.0, 10.0])
    trace = tracing.Tracer("hand", clock=lambda: next(ticks))
    a_id, a_start = trace.begin_span("a")  # 0 .. 10
    b_start = trace.begin()  # leaf b: 1 .. 3
    f_start = trace.begin()  # leaf f inside b: 1.5 .. 2
    trace.end_leaf("f", f_start)
    trace.end_leaf("b", b_start)
    c_id, c_start = trace.begin_span("c")  # 4 .. 9
    for _ in range(2):  # leaf d: 5 .. 6 and 7 .. 7.5
        d_start = trace.begin()
        trace.end_leaf("d", d_start)
    trace.end_span(c_id, "c", c_start)
    trace.end_span(a_id, "a", a_start)

    spans = {span.name: span for span in trace.spans}
    assert spans["a"].self_s == pytest.approx(10 - 2 - 5)
    assert spans["c"].self_s == pytest.approx(5 - 1.5)
    assert spans["c"].parent == spans["a"].span_id
    assert trace.leaves[(a_id, "b")] == [1, pytest.approx(2 - 0.5)]
    assert trace.leaves[(a_id, "f")] == [1, pytest.approx(0.5)]
    assert trace.leaves[(c_id, "d")] == [2, pytest.approx(1.5)]
    calls, self_s = trace.totals("a")
    assert calls == {"a": 1, "b": 1, "f": 1, "c": 1, "d": 2}
    assert sum(self_s.values()) == pytest.approx(10)


def records(trace):
    return len(trace.spans), {key: list(v) for key, v in trace.leaves.items()}


def test_untraced_run_after_traced_run_sees_original_callables():
    before = tracing.current_callables()
    spec = api.CollectiveScenario(topology="2D-SW_SW", size=64 * 2**20, chunks=8)
    untraced = api.run(spec).payload["comm_time"]
    trace = tracing.Tracer("restore")
    with tracing.installed(trace):
        wrapped = tracing.current_callables()
        assert all(wrapped[key] is not before[key] for key in before if before[key])
        assert api.run(spec).payload["comm_time"] == untraced
    assert tracing.current_callables() == before
    recorded = records(trace)
    assert recorded[0] > 0
    assert api.run(spec).payload["comm_time"] == untraced
    assert records(trace) == recorded


def test_speed_correction_on_hand_built_probes():
    ref = hostspeed.REFERENCE_PROBE_S
    meter = hostspeed.SpeedMeter()
    meter.probes = [(t, t + ref) for t in (0.0, 1.0, 2.0, 3.0)]
    # Two probes start inside 0.5 .. 2.5; their time is left out.
    raw, corrected = meter.seconds(0.5, 2.5)
    assert raw == pytest.approx(2.0 - 2 * ref)
    assert corrected == pytest.approx(raw)
    # Probes twice as slow: the same stretch counts half as long.
    meter.probes = [(t, t + 2 * ref) for t in (0.0, 1.0, 2.0, 3.0)]
    raw, corrected = meter.seconds(0.5, 2.5)
    slower = 2**hostspeed.SENSITIVITY
    assert raw == pytest.approx(2.0 - 4 * ref)
    assert corrected == pytest.approx(raw / slower)
    # An interval with no probe inside takes its speed from the nearest ones.
    assert meter.seconds(3.5, 3.7) == pytest.approx((0.2, 0.2 / slower))


def test_meter_probes_while_open_and_restores_the_alarm_afterwards():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedMeter() as meter:
        end = time.perf_counter() + 5 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(meter.probes) > 2
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
