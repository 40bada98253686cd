"""Runtime invariant auditor: clean runs pass, corrupted state trips.

Two halves.  The first runs real scenarios (collective, preemption,
weighted sharing, fig4 training, fairness/placement clusters) with
auditing enabled and asserts they complete with a healthy ``checks_run``
count — the auditor must never false-positive on a correct simulator.
The second deliberately corrupts engine/channel/driver state and asserts
each invariant raises a structured :class:`InvariantViolation`.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import api
from repro.cluster import ClusterConfig, ClusterSimulator, JobSpec
from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import SchedulerFactory, Splitter
from repro.experiments.fig4 import fig4_sweep
from repro.sim import (
    EventQueue,
    FusionConfig,
    InvariantAuditor,
    InvariantViolation,
    NetworkSimulator,
    audit_from_env,
    resolve_audit,
)
from repro.topology import Topology, dimension, topology_to_dict
from repro.training import TrainingConfig
from repro.units import MB
from repro.workloads import Layer, Workload


def two_dim_topology() -> Topology:
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 2, 100.0, latency_ns=1000),
        ],
        name="audit-2d",
    )


def _simulator(audit: bool | None = True, **kwargs) -> NetworkSimulator:
    return NetworkSimulator(
        two_dim_topology(),
        SchedulerFactory("themis", splitter=Splitter(4)),
        audit=audit,
        **kwargs,
    )


def _comm_heavy(layers: int, param_mb: float, name: str) -> Workload:
    return Workload(
        name=name,
        layers=[
            Layer(
                name=f"l{i}",
                fwd_flops=1e8,
                bwd_flops=2e8,
                param_bytes=param_mb * MB,
            )
            for i in range(layers)
        ],
        batch_per_npu=1,
    )


def _cluster(fairness: str | None, audit: bool | None = True) -> ClusterSimulator:
    jobs = [
        JobSpec(name="big", workload=_comm_heavy(6, 4, "b"), iterations=2),
        JobSpec(
            name="late",
            workload=_comm_heavy(2, 8, "l"),
            iterations=2,
            arrival_time=1e-4,
            priority=3,
            weight=2.0,
        ),
    ]
    config = ClusterConfig(
        training=TrainingConfig(chunks_per_collective=8),
        isolated_baselines=False,
        fairness=fairness,
        audit=audit,
    )
    return ClusterSimulator(two_dim_topology(), jobs, config)


# --- enablement resolution ---------------------------------------------------
class TestResolution:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("THEMIS_AUDIT", raising=False)
        assert not audit_from_env()
        assert not resolve_audit(None)

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "OFF"])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv("THEMIS_AUDIT", value)
        assert not audit_from_env()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "anything"])
    def test_truthy_env_values(self, monkeypatch, value):
        monkeypatch.setenv("THEMIS_AUDIT", value)
        assert audit_from_env()
        assert resolve_audit(None)

    def test_explicit_parameter_beats_env(self, monkeypatch):
        monkeypatch.setenv("THEMIS_AUDIT", "1")
        assert resolve_audit(False) is False
        monkeypatch.setenv("THEMIS_AUDIT", "0")
        assert resolve_audit(True) is True

    def test_simulator_wiring(self, monkeypatch):
        monkeypatch.delenv("THEMIS_AUDIT", raising=False)
        off = _simulator(audit=None)
        assert off.auditor is None and off.engine.auditor is None
        monkeypatch.setenv("THEMIS_AUDIT", "1")
        on = _simulator(audit=None)
        assert on.auditor is not None
        assert on.engine.auditor is on.auditor
        assert all(ch.auditor is on.auditor for ch in on.channels)

    def test_shared_engine_shares_one_auditor(self):
        first = _simulator()
        second = NetworkSimulator(
            two_dim_topology(),
            SchedulerFactory("themis", splitter=Splitter(4)),
            engine=first.engine,
            audit=True,
        )
        assert second.auditor is first.auditor


# --- clean scenarios must pass -----------------------------------------------
class TestCleanRuns:
    def test_collective_run_passes(self):
        sim = _simulator()
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 32 * MB, owner="a"))
        sim.submit(
            CollectiveRequest(CollectiveType.REDUCE_SCATTER, 8 * MB, owner="b"),
            at_time=1e-4,
        )
        result = sim.run()
        assert all(c.done for c in result.collectives)
        assert sim.auditor.checks_run > 0

    def test_preemption_run_passes(self):
        sim = _simulator(fusion=FusionConfig(enabled=False))
        sim.enable_preemption()
        sim.submit(
            CollectiveRequest(
                CollectiveType.REDUCE_SCATTER, 128 * MB, priority=0, owner="lo"
            )
        )
        sim.submit(
            CollectiveRequest(
                CollectiveType.REDUCE_SCATTER, 8 * MB, priority=5, owner="hi"
            ),
            at_time=1e-4,
        )
        sim.run()
        # The scenario must actually preempt for the debit path to be audited.
        assert sim.preemption_count > 0
        assert sim.auditor.checks_run > 0

    def test_weighted_sharing_run_passes(self):
        sim = _simulator()
        sim.set_tenant_weights({"a": 1.0, "b": 3.0})
        sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 32 * MB, owner="a"))
        sim.submit(
            CollectiveRequest(CollectiveType.ALL_REDUCE, 32 * MB, owner="b"),
            at_time=5e-5,
        )
        sim.run()
        assert sim.auditor.checks_run > 0

    def test_fig4_scenario_passes(self):
        base, axes = fig4_sweep(quick=True)
        spec = base.with_overrides(
            {
                "workload": "resnet-152",
                "topology": axes["topology"][0],
                "ideal_network": False,
            }
        )
        report = api.run(spec, audit=True)
        assert report.to_dict()

    @pytest.mark.parametrize("fairness", [None, "weighted", "ftf", "preempt"])
    def test_cluster_fairness_scenarios_pass(self, fairness):
        sim = _cluster(fairness)
        report = sim.run()
        assert all(j.finish_time is not None for j in report.jobs)
        assert sim.network.auditor is not None
        assert sim.network.auditor.checks_run > 0

    def test_placement_scenario_passes(self):
        spec = api.ClusterScenario(
            topology=topology_to_dict(two_dim_topology()),
            jobs=tuple(
                api.ScenarioJob(
                    name=f"j{i}",
                    workload="flood",
                    workload_args={"layers": 2, "param_mb": 2},
                )
                for i in range(2)
            ),
            placement="load-balanced",
        )
        report = api.run(spec, audit=True)
        assert report.to_dict()


# --- corrupted state must trip -----------------------------------------------
def _violation(excinfo) -> InvariantViolation:
    error = excinfo.value
    assert isinstance(error, InvariantViolation)
    return error


class TestEventTimeInvariants:
    def _audited_engine(self) -> EventQueue:
        engine = EventQueue()
        engine.auditor = InvariantAuditor()
        return engine

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_schedule_trips(self, bad):
        engine = self._audited_engine()
        with pytest.raises(InvariantViolation) as excinfo:
            engine.schedule(bad, lambda: None)
        assert _violation(excinfo).invariant == "finite-event-time"

    def test_non_finite_schedule_from_callback_trips_during_run(self):
        engine = self._audited_engine()
        engine.schedule(1e-3, lambda: engine.schedule(float("nan"), lambda: None))
        with pytest.raises(InvariantViolation):
            engine.run()

    def test_cancelled_handle_firing_trips(self):
        engine = self._audited_engine()
        handle = engine.schedule(1e-3, lambda: None)
        handle.cancel()
        with pytest.raises(InvariantViolation) as excinfo:
            engine.auditor.on_event_fire(engine, 1e-3, handle)
        assert _violation(excinfo).invariant == "cancelled-event-fired"

    def test_backwards_time_trips(self):
        engine = self._audited_engine()
        handle = engine.schedule(10.0, lambda: None)
        engine.now = 5.0
        with pytest.raises(InvariantViolation) as excinfo:
            engine.auditor.on_event_fire(engine, 1.0, handle)
        assert _violation(excinfo).invariant == "monotonic-time"

    def test_negative_time_trips(self):
        engine = self._audited_engine()
        handle = engine.schedule(10.0, lambda: None)
        engine.now = -2.0
        with pytest.raises(InvariantViolation) as excinfo:
            engine.auditor.on_event_fire(engine, -1.0, handle)
        assert _violation(excinfo).invariant == "non-negative-time"


def _finished_sim() -> NetworkSimulator:
    sim = _simulator()
    sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 16 * MB, owner="a"))
    sim.run()
    return sim


class TestChannelInvariants:
    def test_lost_outstanding_bytes_trip_conservation(self):
        sim = _finished_sim()
        channel = sim.channels[0]
        # Admit bytes the channel never tracked: the ledger and the
        # channel's outstanding counter now disagree by a whole op.
        ghost = SimpleNamespace(bytes_sent=1e9)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.auditor.on_enqueue(channel, ghost)
        error = _violation(excinfo)
        assert error.invariant == "byte-conservation"
        assert error.dim_index == channel.dim_index

    def test_negative_outstanding_trips_conservation(self):
        sim = _finished_sim()
        channel = sim.channels[0]
        ledger = sim.auditor._ledger(channel)
        channel._outstanding_bytes = -1e6
        ledger.admitted_bytes = ledger.completed_bytes - 1e6  # keep balance
        with pytest.raises(InvariantViolation) as excinfo:
            sim.auditor._check_conservation(channel, ledger, "test")
        assert _violation(excinfo).invariant == "byte-conservation"

    def test_stats_drift_trips_balance(self):
        sim = _finished_sim()
        channel = sim.channels[0]
        channel.stats.bytes_sent += 1e6  # double-counted credit
        with pytest.raises(InvariantViolation) as excinfo:
            sim.auditor._check_stats_balance(
                channel, sim.auditor._ledger(channel)
            )
        error = _violation(excinfo)
        assert error.invariant == "stats-balance"
        assert "bytes_sent" in str(error)

    def test_preempting_finished_batch_trips(self):
        sim = _finished_sim()
        channel = sim.channels[0]
        drained = SimpleNamespace(remaining=0.0)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.auditor.on_preempt(channel, drained)
        assert _violation(excinfo).invariant == "preemption-balance"

    def test_over_debited_stats_trip(self):
        sim = _finished_sim()
        channel = sim.channels[0]
        channel.stats.transfer_seconds = -1.0
        running = SimpleNamespace(remaining=1.0)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.auditor.on_preempt(channel, running)
        error = _violation(excinfo)
        assert error.invariant == "preemption-balance"
        assert "transfer_seconds" in str(error)

    @pytest.mark.parametrize(
        "flows, detail",
        [
            ({"a": (0.0, 1.0)}, "non-positive rate"),
            ({"a": (0.5, -1.0)}, "negative remaining"),
            ({"a": (0.6, 1.0), "b": (0.7, 1.0)}, "exceed channel capacity"),
        ],
    )
    def test_bad_flow_rates_trip_capacity(self, flows, detail):
        sim = _finished_sim()
        channel = sim.channels[0]
        fake = {
            owner: SimpleNamespace(rate=rate, remaining=remaining, priority=0)
            for owner, (rate, remaining) in flows.items()
        }
        with pytest.raises(InvariantViolation) as excinfo:
            sim.auditor.on_flows_rescheduled(channel, fake)
        error = _violation(excinfo)
        assert error.invariant == "rate-capacity"
        assert detail in str(error)


class TestClusterInvariants:
    def test_acausal_finish_trips(self):
        sim = _cluster("weighted")
        sim.run()
        driver = sim._drivers[-1]
        driver.finish_time = driver.spec.arrival_time - 1e-6
        with pytest.raises(InvariantViolation) as excinfo:
            sim._audit_outcomes()
        assert _violation(excinfo).invariant == "job-causality"

    def test_lost_iteration_trips(self):
        sim = _cluster(None)
        sim.run()
        sim._drivers[0].iterations_done -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            sim._audit_outcomes()
        assert _violation(excinfo).invariant == "job-iterations"


class TestViolationRendering:
    def test_message_carries_structured_context(self):
        error = InvariantViolation(
            "byte-conservation",
            "admitted != completed + outstanding",
            time=1.5,
            dim_index=2,
            context={"admitted": 10.0, "completed": 4.0},
        )
        text = str(error)
        assert "byte-conservation" in text
        assert "dim2" in text and "t=1.5" in text
        assert "admitted=10.0" in text
        assert error.context == {"admitted": 10.0, "completed": 4.0}
