"""Fluid fast-path backend tests: agreement, hybrid triggers, speedup.

Covered:

* registry row and capability flags of the ``fluid`` backend;
* ``FluidOptions`` validation: tolerance bounds, did-you-mean rejection
  of unknown keys, spec-level rejection through ``backend_options``;
* cross-backend agreement goldens vs ``analytical``: single collectives
  agree tightly (the collapse is exact when chunks amortize the pipeline
  fill/drain), multi-job cluster outcomes diverge boundedly;
* hybrid escape-hatch triggers: coarse multi-dim plans and armed
  preemption keep exact chunk granularity, ``hybrid: false`` overrides;
* determinism: bit-identical repeats;
* the headline: a 1024-arrival open-loop cluster run processes >= 20x
  fewer events under ``fluid`` than under ``analytical``;
* fluid preemption: strict-priority rate sharing parks lower-priority
  flows and counts preemptions;
* clean runs under the invariant auditor, including across fault-driven
  capacity transitions (byte conservation at rate-change points);
* the heap-of-heads admission index: selections identical to the
  policy's linear ``select`` over the live ops under churn.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.collectives import CollectiveRequest, CollectiveType
from repro.collectives.types import PhaseOp
from repro.collectives.phases import Stage
from repro.core import ReadyQueue, SchedulerFactory, Splitter
from repro.core.policies import get_policy
from repro.errors import ConfigError, SpecError
from repro.sim import FaultSchedule, LinkFault
from repro.sim.backends import (
    FluidNetwork,
    FluidOptions,
    backend_names,
    get_backend,
)
from repro.sim.executor import OpState
from repro.topology import Topology, dimension, topology_to_dict
from repro.units import MB


def _2d() -> Topology:
    return Topology(
        [
            dimension("ring", 4, 96.0, latency_ns=100),
            dimension("ring", 4, 48.0, latency_ns=200),
        ],
        name="fluid-2d",
    )


def _run_once(backend: str, *, chunks: int = 64, size=64 * MB,
              options=None, audit=None, schedule=None):
    net = get_backend(backend).build(
        _2d(),
        scheduler=SchedulerFactory("themis", splitter=Splitter(chunks)),
        options=options,
        audit=audit,
    )
    if schedule is not None:
        net.apply_fault_schedule(schedule)
    net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, size))
    result = net.run()
    return result.collectives[0].completion_time, net.engine.events_processed


class TestRegistration:
    def test_fluid_registered(self):
        assert "fluid" in backend_names()
        impl = get_backend("fluid")
        assert impl is FluidNetwork

    def test_full_capability_surface(self):
        impl = get_backend("fluid")
        assert impl.accepts_scheduler
        assert impl.provides_result
        assert impl.supports_faults
        assert impl.supports_sharing
        assert impl.supports_cluster

    def test_build_returns_fluid_network(self):
        net = get_backend("fluid").build(_2d())
        assert isinstance(net, FluidNetwork)
        # every channel is in shared (GPS) mode from construction
        assert all(ch.share_weights is not None for ch in net.channels)


class TestOptions:
    def test_defaults(self):
        opts = FluidOptions()
        assert opts.tolerance == 0.05
        assert opts.hybrid is True

    def test_tolerance_bounds(self):
        with pytest.raises(ConfigError, match="tolerance"):
            FluidOptions(tolerance=-0.1)
        with pytest.raises(ConfigError, match="tolerance"):
            FluidOptions(tolerance=1.5)

    def test_unknown_key_did_you_mean(self):
        with pytest.raises(ConfigError, match="tolerance"):
            get_backend("fluid").validate_options({"tolerence": 0.1})

    def test_spec_level_rejection(self):
        with pytest.raises(SpecError, match="hybrid"):
            api.TrainingScenario(
                workload="dlrm",
                topology="2D-SW_SW",
                backend="fluid",
                backend_options={"hybird": False},
            )

    def test_spec_level_acceptance(self):
        spec = api.TrainingScenario(
            workload="dlrm",
            topology="2D-SW_SW",
            backend="fluid",
            backend_options={"tolerance": 0.2},
        )
        report = api.run(spec)
        assert report.payload["backend"] == "fluid"


class TestAgreementGoldens:
    """Cross-backend agreement vs the analytical reference."""

    def test_single_collective_tight(self):
        exact_t, exact_ev = _run_once("analytical")
        fluid_t, fluid_ev = _run_once("fluid")
        assert fluid_t == pytest.approx(exact_t, rel=1e-9)
        assert fluid_ev < exact_ev / 20

    def test_single_dim_exact(self):
        topo = Topology(
            [dimension("ring", 8, 200.0, latency_ns=700)], name="one-ring"
        )
        results = {}
        for key in ("analytical", "fluid"):
            net = get_backend(key).build(
                topo, scheduler=SchedulerFactory("themis", splitter=Splitter(64))
            )
            net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 32 * MB))
            result = net.run()
            results[key] = result.collectives[0].completion_time
        assert results["fluid"] == pytest.approx(results["analytical"], rel=1e-9)

    def test_multi_job_cluster_bounded(self):
        jcts = {}
        for backend in ("analytical", "fluid"):
            spec = _cluster_spec(backend)
            jcts[backend] = api.run(spec).payload["mean_jct"]
        assert jcts["fluid"] == pytest.approx(jcts["analytical"], rel=0.25)


def _cluster_spec(backend: str, *, jobs: int = 6, fairness=None) -> api.ClusterScenario:
    return api.ClusterScenario(
        topology="2D-SW_SW",
        jobs=tuple(
            api.ScenarioJob(
                name=f"j{i}",
                workload="dlrm",
                arrival_time=i * 1e-4,
                iterations=1,
            )
            for i in range(jobs)
        ),
        backend=backend,
        fairness=fairness,
    )


class TestHybridTriggers:
    def test_coarse_plan_falls_back_to_exact(self):
        # 2D with 4 chunks: fill/drain skew 1/4 > tolerance 0.05 -> exact.
        exact_t, exact_ev = _run_once("analytical", chunks=4)
        fluid_t, fluid_ev = _run_once("fluid", chunks=4)
        assert fluid_t == pytest.approx(exact_t, rel=1e-9)
        # exact granularity: same op count, so the same order of events
        assert fluid_ev > exact_ev / 2

    def test_hybrid_false_fluidizes_anyway(self):
        _, gated_ev = _run_once("fluid", chunks=4)
        _, forced_ev = _run_once(
            "fluid", chunks=4, options={"hybrid": False}
        )
        assert forced_ev < gated_ev / 4

    def test_loose_tolerance_fluidizes(self):
        _, gated_ev = _run_once("fluid", chunks=4)
        _, loose_ev = _run_once("fluid", chunks=4, options={"tolerance": 1.0})
        assert loose_ev < gated_ev / 4

    def test_preemption_pins_exact_granularity(self):
        net = get_backend("fluid").build(
            _2d(), scheduler=SchedulerFactory("themis", splitter=Splitter(64))
        )
        net.enable_preemption()
        net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        net.run()
        armed_ev = net.engine.events_processed
        _, fluid_ev = _run_once("fluid", chunks=64)
        assert armed_ev > 20 * fluid_ev
        assert all(ch.priority_sharing for ch in net.channels)

        # Armed after the plan's aggregate was cached: the resubmission
        # still runs one op per (chunk, stage), not the cached flows.
        net = get_backend("fluid").build(
            _2d(), scheduler=SchedulerFactory("themis", splitter=Splitter(64))
        )
        net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        net.run()
        net.enable_preemption()
        net.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB))
        result = net.run()
        cached, armed = (
            [r for r in result.records if r.collective_seq == c.request.request_id]
            for c in result.collectives
        )
        assert len(cached) == 2  # one aggregate flow per dimension
        assert len(armed) == result.collectives[1].plan.total_ops == 64 * 4


class TestDeterminism:
    def test_bit_identical_repeats(self):
        runs = []
        for _ in range(2):
            report = api.run(_cluster_spec("fluid"))
            runs.append(
                (
                    report.events,
                    report.makespan,
                    tuple(j["jct"] for j in report.payload["jobs"]),
                )
            )
        assert runs[0] == runs[1]


class TestFluidCluster:
    def test_preemption_counts(self):
        report = api.run(_cluster_spec("fluid", fairness="preempt"))
        assert report.payload["preemption_count"] > 0

    def test_weighted_fairness_runs(self):
        report = api.run(_cluster_spec("fluid", fairness="weighted"))
        assert report.payload["mean_jct"] > 0

    def test_enforce_consistency_unreachable_via_backend(self):
        # FluidNetwork never threads enforce_consistency; the fluidized
        # pseudo-ops could never match pre-simulated (chunk, stage) keys.
        net = get_backend("fluid").build(_2d())
        assert net.enforce_consistency is False


class TestAudited:
    def test_single_run_clean_under_audit(self):
        fluid_t, _ = _run_once("fluid", audit=True)
        assert fluid_t > 0

    def test_fault_transitions_conserve_bytes(self):
        schedule = FaultSchedule(
            (
                LinkFault(dim_index=0, start=1e-4, factor=0.5),
                LinkFault(dim_index=1, start=2e-4, factor=0.0, duration=2e-4),
            )
        )
        exact_t, _ = _run_once("analytical", audit=True, schedule=schedule)
        fluid_t, _ = _run_once("fluid", audit=True, schedule=schedule)
        # both slower than the unfaulted run, and they agree tightly: the
        # pseudo-flow sees the same capacity trajectory the chunk train saw
        base_t, _ = _run_once("analytical")
        assert exact_t > base_t
        assert fluid_t == pytest.approx(exact_t, rel=0.05)

    def test_cluster_clean_under_audit(self):
        report = api.run(_cluster_spec("fluid", fairness="weighted"), audit=True)
        assert report.payload["mean_jct"] > 0


class TestHeadlineSpeedup:
    """The acceptance bar: >= 20x fewer events at 1024 open-loop jobs."""

    def _open_loop(self, backend: str) -> int:
        topo = Topology(
            [
                dimension("sw", 4, 400.0, latency_ns=100),
                dimension("sw", 4, 200.0, latency_ns=500),
            ],
            name="bench-4x4",
        )
        spec = api.ClusterScenario(
            topology=topology_to_dict(topo),
            open_loop=api.OpenLoopTrace(
                rate=20_000.0,
                duration=None,
                max_jobs=1024,
                seed=7,
                mix={
                    "elephant_fraction": 0.0,
                    "mouse_layers": 1,
                    "mouse_param_mb": 1.0,
                    "max_iterations": 2,
                },
            ),
            max_concurrent=8,
            outcome_cap=100,
            isolated_baselines=False,
            chunks=64,
            backend=backend,
        )
        report = api.run(spec)
        assert report.payload["total_jobs"] == 1024
        return report.events

    def test_1024_job_open_loop_20x(self):
        exact_events = self._open_loop("analytical")
        fluid_events = self._open_loop("fluid")
        assert exact_events >= 20 * fluid_events


class TestHeadsHeap:
    """The O(log T) admission index returns exactly what the policy's
    defining ``select`` (a linear ``min(sort_key)``) returns."""

    def _op(self, owner: str, seq: int, transfer: float) -> OpState:
        return OpState(
            collective_seq=seq,
            chunk_id=0,
            stage_index=0,
            stage=Stage(dim_index=0, op=PhaseOp.RS, stage_size=4),
            parent_dim=0,
            bytes_sent=1.0,
            transfer_time=transfer,
            fixed_time=0.0,
            priority=seq % 3,
            owner=owner,
        )

    def test_matches_reference_scan_under_churn(self):
        import random

        rng = random.Random(11)
        for policy_key in ("FIFO", "SCF", "LCF"):
            policy = get_policy(policy_key)
            queue = ReadyQueue(policy.sort_key)
            ops = []
            active: set[str] = set()
            seq = 0
            for _step in range(300):
                action = rng.random()
                if action < 0.5 or not ops:
                    op = self._op(f"t{rng.randrange(12)}", seq, rng.random())
                    seq += 1
                    queue.push(op, True)
                    ops.append(op)
                elif action < 0.7:
                    op = ops.pop(rng.randrange(len(ops)))
                    queue.discard(op)
                else:
                    owner = f"t{rng.randrange(12)}"
                    now_active = rng.random() < 0.5
                    if now_active:
                        active.add(owner)
                    else:
                        active.discard(owner)
                    queue.set_owner_active(owner, now_active)
                got = queue.select(idle_only=True)
                candidates = [op for op in ops if op.owner not in active]
                want = policy.select(candidates) if candidates else None
                # total-order sort keys: the minimum is unique, so both
                # must return the same op object (or neither)
                assert got is want


class TestFluidScaleExperiment:
    """The capacity-study harness in repro.experiments.fluid_scale."""

    def test_smoke_and_agreement(self):
        from repro.experiments import run_fluid_scale

        result = run_fluid_scale(job_counts=(24, 48))
        # the collapse is per-collective, so even tiny sweeps keep the
        # headline event reduction and bounded JCT divergence
        assert result.event_ratio > 5.0
        assert 0.75 < result.jct_ratio < 1.25
        assert result.events_flat()
        rendered = result.render()
        assert "conclusion" in rendered and "events/job" in rendered

    def test_deterministic_rerun(self):
        from repro.experiments import run_fluid_scale

        first = run_fluid_scale(job_counts=(24,))
        second = run_fluid_scale(job_counts=(24,))
        assert first.rows == second.rows
        assert first.exact_reference == second.exact_reference

    def test_rejects_empty_and_nonpositive(self):
        from repro.experiments import fluid_scale_spec, run_fluid_scale

        with pytest.raises(ConfigError):
            run_fluid_scale(job_counts=())
        with pytest.raises(ConfigError):
            fluid_scale_spec(0, "fluid")
