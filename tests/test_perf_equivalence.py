"""Golden timelines: the simulator's exact output, pinned by digest.

The paper's Sec. 4.6.2 consistency mechanism depends on the simulation
being deterministic, and the hot path's indexed ready queues, plan and
consistency caches, and event cancellation are pure performance devices:
none may move a single timestamp.  Each cell below runs one fixed
scenario and reduces its exact output — per-op ready/start/end times and
completion order, or a cluster run's JCTs and wire statistics — to
``sha256(repr(value))``.  ``tests/data/golden_timelines.json`` holds the
digests recorded from the pre-indexing reference implementation
(flat-list ready queues, no plan cache, no event cancellation) before it
was deleted, so every cell checks the production path against that
reference's output with exact float equality.  The faulted cells and the
fluid and packet cluster cells were recorded while every submission still
recomputed its op costs from the latency model, so they pin op costs
served from the plan cache to that recomputation.  The seven cells that
run on the shared (weighted-share) wire were re-recorded when its finish
events moved to a per-channel GPS virtual clock, which reassociates the
wire's float arithmetic; :class:`TestSharedWireAgreement` holds them to
the values recorded before that change.  Float ``repr`` is
exact, and the simulator totals its float terms left to right
(:func:`repro.sim.engine.ordered_sum`) rather than with the builtin
``sum``, whose rounding changed in Python 3.12, so one set of digests
holds on every supported version.  A cell that changes fails with its
name and fresh digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, JobSpec
from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import LatencyModel, SchedulerFactory, Splitter
from repro.sim import EventQueue, FusionConfig, LinkFault, NetworkSimulator
from repro.sim.backends import get_backend
from repro.topology import Topology, dimension
from repro.training import TrainingConfig
from repro.units import KB, MB
from repro.workloads import Layer, Workload

POLICIES = ("fifo", "scf", "lcf")

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_timelines.json").read_text()
)

#: The five mixed submissions: per-request sizes and issue times.  At MB
#: scale every op saturates its dimension, so fusion never triggers; the
#: KB scale packs small ops closely enough to fuse several per batch.
MB_SCALE = (
    (64 * MB, 16 * MB, 4 * MB, 8 * MB, 64 * MB),
    (0.0, 1e-4, 2e-4, 5e-5, 3e-4),
)
KB_SCALE = (
    (64 * KB, 16 * KB, 8 * KB, 32 * KB, 64 * KB),
    (0.0, 1e-6, 2e-6, 5e-7, 3e-6),
)


def digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _check(cell: str, value: object) -> None:
    """Assert ``value`` reproduces the golden digest of ``cell``."""
    fresh = digest(value)
    assert fresh == GOLDEN[cell], f"golden cell {cell!r} changed: fresh digest {fresh}"


def _switch(on: bool) -> str:
    return "on" if on else "off"


def three_dim_topology() -> Topology:
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
            dimension("sw", 2, 100.0, latency_ns=1000),
        ],
        name="equiv-3d",
    )


def _submit_mixed_workload(sim, scale: tuple = MB_SCALE) -> None:
    """Concurrent collectives: mixed sizes, dim subsets, priorities, tenants,
    and an exact repeat (exercises the plan cache)."""
    (ar_a, ar_b, rs, ag, repeat), (t_a, t_b, t_rs, t_ag, t_repeat) = scale
    sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, ar_a, owner="a"), t_a)
    sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, ar_b, owner="b"), t_b)
    sim.submit(
        CollectiveRequest(CollectiveType.REDUCE_SCATTER, rs, priority=2, owner="a"),
        t_rs,
    )
    sim.submit(
        CollectiveRequest(CollectiveType.ALL_GATHER, ag, dim_indices=(0, 1), owner="b"),
        t_ag,
    )
    sim.submit(
        CollectiveRequest(CollectiveType.ALL_REDUCE, repeat, owner="a"), t_repeat
    )


def _timeline(sim) -> tuple:
    """Normalized timeline: per-op times plus completion order/times.

    Request ids are globally monotonic, so they are rebased to the run's
    first id to make two separate runs comparable.
    """
    result = sim.run()
    base = result.collectives[0].request.request_id
    records = tuple(
        (
            r.collective_seq - base,
            r.chunk_id,
            r.stage_index,
            r.dim_index,
            r.ready_time,
            r.start_time,
            r.end_time,
        )
        for r in result.records
    )
    completions = tuple(
        (c.request.request_id - base, c.completion_time)
        for c in result.collectives
    )
    return records, completions


def _single_sim(
    scheduler: str,
    policy: str,
    fusion_on: bool = True,
    enforce: bool = False,
    scale: tuple = MB_SCALE,
) -> NetworkSimulator:
    sim = NetworkSimulator(
        three_dim_topology(),
        SchedulerFactory(scheduler, splitter=Splitter(8)),
        policy=policy,
        fusion=FusionConfig(enabled=fusion_on),
        enforce_consistency=enforce,
    )
    _submit_mixed_workload(sim, scale)
    return sim


def _backend_sim(
    backend: str, chunks: int, factory: type[SchedulerFactory] = SchedulerFactory
):
    sim = get_backend(backend).build(
        three_dim_topology(),
        scheduler=factory("themis", splitter=Splitter(chunks)),
    )
    _submit_mixed_workload(sim)
    return sim


def _shared_engine_sim() -> NetworkSimulator:
    sim = NetworkSimulator(
        three_dim_topology(),
        SchedulerFactory("themis", splitter=Splitter(4)),
        policy="scf",
        engine=EventQueue(),
    )
    _submit_mixed_workload(sim)
    return sim


class TestSingleSimulatorEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("fusion_on", [True, False])
    @pytest.mark.parametrize("enforce", [True, False])
    def test_identical_timelines(self, policy, fusion_on, enforce):
        cell = (
            f"themis/{policy}/fusion_{_switch(fusion_on)}"
            f"/consistency_{_switch(enforce)}"
        )
        sim = _single_sim("themis", policy, fusion_on, enforce)
        _check(cell, _timeline(sim))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_baseline_scheduler_identical(self, policy):
        sim = _single_sim("baseline", policy)
        _check(f"baseline/{policy}", _timeline(sim))


class TestFusedTimelines:
    """The mixed workload at KB sizes and microsecond offsets: small ops
    fuse several to a batch, so the fusion axis is exercised for real."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("fusion_on", [True, False])
    @pytest.mark.parametrize("enforce", [True, False])
    @pytest.mark.parametrize("scheduler", ["themis", "baseline"])
    def test_fused_cells_match_golden(self, scheduler, enforce, fusion_on, policy):
        cell = (
            f"kb/{scheduler}/{policy}/fusion_{_switch(fusion_on)}"
            f"/consistency_{_switch(enforce)}"
        )
        sim = _single_sim(scheduler, policy, fusion_on, enforce, KB_SCALE)
        _check(cell, _timeline(sim))
        if fusion_on:
            ops = sum(channel.stats.op_count for channel in sim.channels)
            batches = sum(channel.stats.batch_count for channel in sim.channels)
            assert batches < ops, f"{cell}: no op was fused"


class TestBackendTimelines:
    """The mixed workload on the fluid and packet backends.  Fluid at 8
    chunks keeps exact chunk granularity on its shared wire; at 64 chunks
    every plan collapses to per-dimension flows."""

    @pytest.mark.parametrize(
        "backend, chunks", [("fluid", 8), ("fluid", 64), ("packet", 8)]
    )
    def test_backend_timeline_matches_golden(self, backend, chunks):
        sim = _backend_sim(backend, chunks)
        _check(f"backend/{backend}/chunks_{chunks}", _timeline(sim))


def _faulted_sim(backend: str, chunks: int):
    sim = _backend_sim(backend, chunks)
    sim.apply_fault(LinkFault(dim_index=1, start=2.5e-4, factor=0.5, duration=1e-3))
    return sim


class TestFaultedTimelines:
    """The mixed workload with dim 1 at half capacity from 250 us to
    1.25 ms: the repeated All-Reduce (issued at 300 us) plans under a
    degraded key, while every op still costs its nominal latency."""

    @pytest.mark.parametrize("backend, chunks", [("analytical", 8), ("fluid", 64)])
    def test_faulted_timeline_matches_golden(self, backend, chunks):
        _check(f"faulted/{backend}", _timeline(_faulted_sim(backend, chunks)))


class _UncachedFactory(SchedulerFactory):
    """A factory subclass: the planner caches neither its plans nor their
    op costs, so every submission plans and costs its ops afresh."""


class TestPlanCacheContract:
    """Op costs are computed once per plan key and served from the cache."""

    @pytest.mark.parametrize("backend", ["analytical", "fluid", "packet"])
    def test_resubmission_queries_no_latency_model(self, backend, monkeypatch):
        queries: Counter[str] = Counter()
        for name in [n for n in vars(LatencyModel) if not n.startswith("_")]:
            original = getattr(LatencyModel, name)

            def counted(self, *args, _name=name, _original=original):
                queries[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(LatencyModel, name, counted)
        sim = get_backend(backend).build(
            three_dim_topology(),
            scheduler=SchedulerFactory("themis", splitter=Splitter(64)),
        )
        first = sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 16 * MB))
        sim.run()
        assert queries["bytes_per_npu"] > 0
        queries.clear()
        second = sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 16 * MB))
        sim.run()
        assert not queries
        assert second.duration == pytest.approx(first.duration, rel=1e-9)

    @pytest.mark.parametrize(
        "backend, chunks, cell",
        [
            ("analytical", 8, "themis/scf/fusion_on/consistency_off"),
            ("fluid", 8, "backend/fluid/chunks_8"),
            ("fluid", 64, "backend/fluid/chunks_64"),
            ("packet", 8, "backend/packet/chunks_8"),
        ],
    )
    def test_uncached_factory_gets_correct_ops(self, backend, chunks, cell):
        sim = _backend_sim(backend, chunks, _UncachedFactory)
        _check(cell, _timeline(sim))
        assert not sim.planner._plans


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


def _cluster_jobs() -> list[JobSpec]:
    return [
        JobSpec(name="elephant", workload=_comm_heavy(10, 3, "e"), iterations=3),
        JobSpec(
            name="mouse",
            workload=_comm_heavy(2, 20, "m"),
            iterations=3,
            arrival_time=1e-4,
            weight=2.0,
        ),
        JobSpec(
            name="urgent",
            workload=_comm_heavy(2, 8, "u"),
            iterations=2,
            arrival_time=2e-4,
            priority=3,
        ),
    ]


def _cluster_report(fairness: str, backend: str | None = None, chunks: int = 16):
    config = ClusterConfig(
        training=TrainingConfig(chunks_per_collective=chunks),
        isolated_baselines=False,
        fairness=fairness,
        backend=backend,
    )
    sim = ClusterSimulator(three_dim_topology(), _cluster_jobs(), config)
    report = sim.run()
    return report, sim


def _cluster_value(
    fairness: str, backend: str | None = None, chunks: int = 16
) -> tuple:
    report, sim = _cluster_report(fairness, backend, chunks)
    result = sim.network.result()
    return (
        tuple(job.jct for job in report.jobs),
        report.makespan,
        report.preemption_count,
        report.comm_active_seconds,
        tuple(result.dim_bytes),
        tuple(result.dim_transfer_seconds),
    )


class TestClusterEquivalence:
    """Cluster runs under every fairness policy — including FTF, whose
    reweight storms exercise flow-event cancellation hardest."""

    @pytest.mark.parametrize("fairness", ["fifo", "weighted", "ftf", "preempt"])
    def test_identical_cluster_stats(self, fairness):
        _check(f"cluster/{fairness}", _cluster_value(fairness))

    @pytest.mark.parametrize(
        "backend, fairness, chunks",
        [("fluid", "fifo", 64), ("fluid", "preempt", 64), ("packet", "fifo", 16)],
    )
    def test_backend_cluster_stats(self, backend, fairness, chunks):
        """Three iterations per job: all but 3 of the 40 collectives are
        plan-cache hits.  At 64 chunks the fluid FIFO run collapses every
        plan to per-dimension flows; armed preemption keeps exact chunks."""
        _check(
            f"cluster/{backend}/{fairness}", _cluster_value(fairness, backend, chunks)
        )

    def test_reweight_storm_keeps_heap_bounded(self):
        """Each shared channel keeps one finish event, re-armed only when a
        flow starts, a capacity changes or an in-flight flow's weight
        changes, so FTF's reweight storms cannot grow the heap.  The
        counters are exact, so a superseded event that is left to fire
        (a stale-event leak) or a needless re-arm moves them."""
        _, sim = _cluster_report("ftf")
        assert sim.engine.peak_pending == 10
        assert sim.engine.cancelled_events == 533
        assert sim.engine.events_processed == 7493


class TestAuditEquivalence:
    """The invariant auditor is observer-only: an audited run's timeline is
    bit-identical to an unaudited one (exact float equality), and the
    cluster reports match too.  This is the acceptance gate for every new
    auditor hook — a hook that schedules events or perturbs state breaks
    these immediately."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_identical_collective_timelines(self, policy):
        def run(audit: bool) -> tuple:
            sim = NetworkSimulator(
                three_dim_topology(),
                SchedulerFactory("themis", splitter=Splitter(8)),
                policy=policy,
                audit=audit,
            )
            _submit_mixed_workload(sim)
            return _timeline(sim)

        audited = run(True)
        unaudited = run(False)
        assert audited == unaudited

    @pytest.mark.parametrize("fairness", ["fifo", "weighted", "ftf", "preempt"])
    def test_identical_cluster_reports(self, fairness):
        def run(audit: bool):
            config = ClusterConfig(
                training=TrainingConfig(chunks_per_collective=16),
                isolated_baselines=False,
                fairness=fairness,
                audit=audit,
            )
            sim = ClusterSimulator(three_dim_topology(), _cluster_jobs(), config)
            report = sim.run()
            assert (sim.network.auditor is not None) == audit
            return report

        audited = run(True)
        unaudited = run(False)
        assert [j.jct for j in audited.jobs] == [j.jct for j in unaudited.jobs]
        assert audited.makespan == unaudited.makespan
        assert audited.preemption_count == unaudited.preemption_count
        assert audited.comm_active_seconds == unaudited.comm_active_seconds


class TestSharedEngineEquivalence:
    def test_two_simulators_on_one_engine(self):
        """The training/cluster layers share one engine across simulators;
        a simulator on a caller-supplied engine runs identically."""
        _check("shared_engine/scf", _timeline(_shared_engine_sim()))


#: Raw values of the seven cells that run on the shared (weighted-share)
#: wire, recorded alongside their digests.  The shared wire's arithmetic
#: may be reassociated without changing the model — a digest then moves
#: while every value agrees to round-off — so these cells are also held
#: value by value: floats within ``SHARED_WIRE_RTOL`` relative, counts
#: (records, jobs, preemptions) exactly.
SHARED_WIRE = json.loads(
    (Path(__file__).parent / "data" / "shared_wire_values.json").read_text()
)
SHARED_WIRE_RTOL = 1e-9
SHARED_WIRE_CELLS = {
    "backend/fluid/chunks_8": lambda: _timeline(_backend_sim("fluid", 8)),
    "backend/fluid/chunks_64": lambda: _timeline(_backend_sim("fluid", 64)),
    "faulted/fluid": lambda: _timeline(_faulted_sim("fluid", 64)),
    "cluster/weighted": lambda: _cluster_value("weighted"),
    "cluster/ftf": lambda: _cluster_value("ftf"),
    "cluster/fluid/fifo": lambda: _cluster_value("fifo", "fluid", 64),
    "cluster/fluid/preempt": lambda: _cluster_value("preempt", "fluid", 64),
}


def _agreement_view(cell: str, value: list) -> object:
    """A timeline keyed by op identity ``(seq, chunk, stage, dim)`` and
    collective seq, so same-instant completions may swap list order; a
    cluster value stays positional (jobs are in spec order)."""
    if cell.startswith("cluster/"):
        return value
    records, completions = value
    return (
        len(records),
        {tuple(record[:4]): record[4:] for record in records},
        dict(completions),
    )


def _assert_agrees(fresh: object, golden: object, where: str) -> None:
    if isinstance(golden, dict):
        assert isinstance(fresh, dict) and fresh.keys() == golden.keys(), where
        for key, value in golden.items():
            _assert_agrees(fresh[key], value, f"{where}[{key}]")
    elif isinstance(golden, (list, tuple)):
        assert isinstance(fresh, (list, tuple)) and len(fresh) == len(golden), where
        for index, (mine, theirs) in enumerate(zip(fresh, golden)):
            _assert_agrees(mine, theirs, f"{where}[{index}]")
    elif isinstance(golden, float):
        close = math.isclose(fresh, golden, rel_tol=SHARED_WIRE_RTOL)
        assert close, f"{where}: {fresh!r} vs recorded {golden!r}"
    else:
        assert fresh == golden, f"{where}: {fresh!r} vs recorded {golden!r}"


class TestSharedWireAgreement:
    @pytest.mark.parametrize("cell", sorted(SHARED_WIRE_CELLS))
    def test_agrees_with_recorded_values(self, cell):
        fresh = json.loads(json.dumps(SHARED_WIRE_CELLS[cell]()))
        _assert_agrees(
            _agreement_view(cell, fresh), _agreement_view(cell, SHARED_WIRE[cell]), cell
        )
