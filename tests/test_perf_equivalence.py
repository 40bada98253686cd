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
the values recorded before that change.  The ``training/...`` cells were
recorded before a training collective that runs alone could be replayed
from a recipe (:class:`~repro.sim.network.SoloRecipe`), so they pin the
replay to the event loop; under ``THEMIS_AUDIT=1`` every collective runs
through the event loop and must give the same digests.  Float ``repr``
is exact, and the simulator totals its float terms left to right
(:func:`repro.numeric.ordered_sum`) rather than with the builtin
``sum``, whose rounding changed in Python 3.12, so one set of digests
holds on every supported version.  A cell that changes fails with its
name and fresh digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulator, JobSpec
from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import LatencyModel, SchedulerFactory, Splitter
from repro.experiments.fig12 import fig12_training_config
from repro.sim import EventQueue, FusionConfig, LinkFault, NetworkSimulator
from repro.sim.backends import get_backend
from repro.sim.network import _RECIPES_PER_PLAN, SoloRecipe
from repro.topology import Topology, dimension, get_topology
from repro.training import TrainingConfig, TrainingSimulator
from repro.units import KB, MB
from repro.workloads import (
    CommAttachment,
    Layer,
    Workload,
    dlrm,
    gnmt,
    transformer_1t,
)

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
    """Normalized timeline: per-op times plus completion order/times."""
    result = sim.run()
    records = tuple(
        (
            r.collective_seq,
            r.chunk_id,
            r.stage_index,
            r.dim_index,
            r.ready_time,
            r.start_time,
            r.end_time,
        )
        for r in result.records
    )
    completions = tuple((c.seq, c.completion_time) for c in result.collectives)
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


def _training_value(sim: TrainingSimulator) -> tuple:
    """A training run's exact output: every iteration's breakdown and the
    total time, each channel's statistics (activity intervals included)
    and outstanding bytes, every collective's issue and completion time,
    and the comm-active intervals."""
    report = sim.run()
    result = sim.network.result()
    return (
        tuple(dataclasses.astuple(iteration) for iteration in report.iterations),
        report.total_time,
        tuple(
            (dataclasses.astuple(channel.stats), channel.outstanding_bytes)
            for channel in sim.network.channels
        ),
        tuple((c.issue_time, c.completion_time) for c in result.collectives),
        tuple(result.comm_active_intervals),
    )


#: Fig. 12 quick cells as ``workload/topology/scheduler``.  Transformer-1T
#: (8 layers) runs each blocking activation All-Reduce alone on an idle
#: network; DLRM overlaps its embedding All-to-Alls with compute.
TRAINING_CELLS = [
    "transformer/2D-SW_SW/baseline",
    "transformer/2D-SW_SW/themis",
    "transformer/4D-Ring_SW_SW_SW/baseline",
    "transformer/4D-Ring_SW_SW_SW/themis",
    "dlrm/3D-SW_SW_SW_hetero/themis",
]
TRAINING_WORKLOADS = {
    "transformer": lambda: transformer_1t(num_layers=8),
    "dlrm": dlrm,
}


class TestTrainingTimelines:
    """Fig. 12 quick training cells under the default ``audit=None``, so a
    plain run and a ``THEMIS_AUDIT=1`` run are held to the same digest."""

    @pytest.mark.parametrize("cell", TRAINING_CELLS)
    def test_training_cell_matches_golden(self, cell):
        workload, topology, scheduler = cell.split("/")
        sim = TrainingSimulator(
            TRAINING_WORKLOADS[workload](),
            get_topology(topology),
            scheduler=scheduler,
            config=fig12_training_config(quick=True),
        )
        _check(f"training/{cell}", _training_value(sim))

    def test_utilization_repr_pinned(self):
        """``bw_utilization`` totals left to right: the builtin ``sum``
        gave ``...166`` here on Python 3.12 and 3.13."""
        sim = TrainingSimulator(
            gnmt(),
            get_topology("4D-Ring_SW_SW_SW"),
            config=fig12_training_config(quick=True),
        )
        assert repr(sim.run().avg_bw_utilization) == "0.9783816236595168"


def _recipe(*events: tuple[float, float]) -> SoloRecipe:
    """A recipe whose batches all start with the collective, at 0.0; each
    event ``(fixed, wall)`` fires at ``(0.0 + fixed) + wall``."""
    recipe = SoloRecipe(EventQueue(), [])
    times = recipe.times
    for fixed, wall in events:
        times.append((0.0 + fixed) + wall)
        recipe.events.append((0, fixed, wall, times[-1] == times[-2]))
    assert recipe.freeze([], times[-1])
    return recipe


#: A release and a completion tied at 0.3000...04 from a start at 0.0.
TIED = _recipe((0.0, 0.1 + 0.2), (0.1, 0.2))
#: A release at 0.3 strictly before a completion at 0.3000...04.
ORDERED = _recipe((0.0, 0.3), (0.1, 0.2))
#: Two releases one ulp apart.
ULP_APART = _recipe((0.0, 1e-3), (0.0, math.nextafter(1e-3, 1.0)))


class TestCertificate:
    """A recipe replays only from a start where its recomputed event times
    keep the recorded order and ties exactly."""

    def test_broken_tie_rejected(self):
        assert 2.0 + (0.1 + 0.2) < (2.0 + 0.1) + 0.2
        assert TIED.times_from(2.0) is None

    def test_new_tie_rejected(self):
        assert 1.0 + 1e-3 == 1.0 + math.nextafter(1e-3, 1.0)
        assert ULP_APART.times_from(1.0) is None

    def test_flipped_order_rejected(self):
        assert 10.0 + 0.3 > (10.0 + 0.1) + 0.2
        assert ORDERED.times_from(10.0) is None

    def test_order_keeping_shift_accepted(self):
        assert TIED.times_from(1.0) == [1.0, 1.3, 1.3]
        assert ORDERED.times_from(2.0) == [2.0, 2.3, (2.0 + 0.1) + 0.2]
        start = 2.0**-30  # the sums keep 1e-3's ulp, so they stay one apart
        ulp = math.nextafter(start + 1e-3, 1.0)
        assert ULP_APART.times_from(start) == [start, start + 1e-3, ulp]


_KIND = st.sampled_from(["none", "blocking", "async"])
_COMM = st.tuples(
    st.sampled_from(list(CollectiveType)),
    st.sampled_from([64 * KB, 1 * MB, 4 * MB]),
)


def _attachment(kind: str, label: str, comm: tuple) -> CommAttachment | None:
    if kind == "none":
        return None
    ctype, size = comm
    return CommAttachment(ctype, size, blocking=kind == "blocking", label=label)


@st.composite
def _training_runs(draw):
    """A small workload whose layers issue blocking and async collectives
    (each async one awaited by the next layer its pass reaches), with a
    training config and a scheduler."""
    count = draw(st.integers(1, 4))
    # The first layer's forward pass always communicates.
    fwd = [draw(st.sampled_from(["blocking", "async"]))]
    fwd += [draw(_KIND) for _ in range(count - 1)]
    # The first layer's backward pass comes last: nothing could await it.
    bwd = [draw(st.sampled_from(["none", "blocking"]))]
    bwd += [draw(_KIND) for _ in range(count - 1)]
    layers = []
    for index in range(count):
        fwd_wait = f"f{index - 1}" if index and fwd[index - 1] == "async" else ""
        bwd_wait = ""
        if index + 1 < count and bwd[index + 1] == "async":
            bwd_wait = f"b{index + 1}"
        elif index + 1 == count and fwd[index] == "async":
            bwd_wait = f"f{index}"  # backward starts at the last layer
        layers.append(
            Layer(
                name=f"l{index}",
                fwd_flops=draw(st.sampled_from([0.0, 1e8, 1e10])),
                bwd_flops=draw(st.sampled_from([0.0, 2e8, 2e10])),
                param_bytes=draw(st.sampled_from([0.0, 0.5 * MB, 8 * MB])),
                fwd_comm=_attachment(fwd[index], f"f{index}", draw(_COMM)),
                bwd_comm=_attachment(bwd[index], f"b{index}", draw(_COMM)),
                fwd_wait_label=fwd_wait,
                bwd_wait_label=bwd_wait,
            )
        )
    workload = Workload(
        name="w",
        layers=layers,
        batch_per_npu=1,
        mp_group_size=draw(st.sampled_from([None, 4, 16])),
    )
    config = TrainingConfig(
        iterations=draw(st.integers(1, 2)),
        chunks_per_collective=draw(st.sampled_from([2, 4, 8])),
        policy=draw(st.sampled_from(["FIFO", "SCF", "LCF"])),
        overlap_dp=draw(st.booleans()),
        dp_bucket_bytes=draw(st.sampled_from([None, 1 * MB])),
    )
    return workload, config, draw(st.sampled_from(["baseline", "themis"]))


class TestSoloReplay:
    """A training collective that runs alone is replayed from its plan's
    recipe; ``audit=True`` runs every collective through the event loop."""

    @settings(max_examples=40, deadline=None)
    @given(_training_runs())
    def test_replay_matches_event_path(self, run):
        workload, config, scheduler = run

        def value(audit: bool) -> tuple:
            sim = TrainingSimulator(
                workload,
                three_dim_topology(),
                scheduler=scheduler,
                config=config,
                audit=audit,
            )
            return _training_value(sim)

        assert value(False) == value(True)

    def test_identical_blocking_all_reduces_replay(self, monkeypatch):
        """N identical blocking All-Reduces, each alone on 2D-SW_SW under
        Baseline: the first is simulated and recorded, the rest replay.
        Each collective's start event fires through the engine, replayed
        or not; only the recorded one fires its W wire events."""
        replays = []
        replay = NetworkSimulator._replay

        def counted(self, result, plan_key):
            replayed = replay(self, result, plan_key)
            replays.append(replayed)
            return replayed

        monkeypatch.setattr(NetworkSimulator, "_replay", counted)
        count = 12
        attachment = CommAttachment(CollectiveType.ALL_REDUCE, 32 * MB)
        workload = Workload(
            name="blocking",
            layers=[
                Layer(name=f"l{i}", fwd_flops=1e9, bwd_flops=0.0, fwd_comm=attachment)
                for i in range(count)
            ],
            batch_per_npu=1,
        )

        def events(audit: bool) -> int:
            sim = TrainingSimulator(
                workload, get_topology("2D-SW_SW"), scheduler="baseline", audit=audit
            )
            sim.run()
            return sim.engine.events_processed

        plain = events(audit=False)
        assert replays == [False] + [True] * (count - 1)
        # An audited run simulates every collective: its start plus W.
        wire, rest = divmod(events(audit=True) - count, count)
        assert rest == 0 and wire > 0
        assert plain == count + wire

    def test_older_recipe_replays_when_the_newest_fails(self, monkeypatch):
        """Transformer-1T (8 layers) under Themis+SCF on 4D-Ring_FC_Ring_SW
        (a Fig. 12 quick cell): each fallback's run joins its plan's
        recipes, newest first, and a start whose newest recipe fails the
        certificate replays from an older one whose recipe passes.  The
        run equals the audited run, and the plan keeps at most
        ``_RECIPES_PER_PLAN`` recipes although more are recorded."""
        used: list[int | None] = []
        credited: list[SoloRecipe] = []
        recorded: list[bool] = []
        replay, credit, freeze = (
            NetworkSimulator._replay,
            SoloRecipe.credit,
            SoloRecipe.freeze,
        )

        def traced_replay(self, result, plan_key):
            recipes = list(self._recipes.get(plan_key, ()))
            replayed = replay(self, result, plan_key)
            if recipes:
                used.append(recipes.index(credited[-1]) if replayed else None)
            return replayed

        def traced_credit(self, channels, times):
            credited.append(self)
            credit(self, channels, times)

        def traced_freeze(self, channels, completion_time):
            recorded.append(freeze(self, channels, completion_time))
            return recorded[-1]

        monkeypatch.setattr(NetworkSimulator, "_replay", traced_replay)
        monkeypatch.setattr(SoloRecipe, "credit", traced_credit)
        monkeypatch.setattr(SoloRecipe, "freeze", traced_freeze)

        def run(audit: bool) -> tuple[tuple, TrainingSimulator]:
            sim = TrainingSimulator(
                transformer_1t(num_layers=8),
                get_topology("4D-Ring_FC_Ring_SW"),
                scheduler="themis",
                config=fig12_training_config(quick=True),
                audit=audit,
            )
            return _training_value(sim), sim

        plain, sim = run(audit=False)
        fallbacks = used.count(None)
        assert (len(used) - fallbacks, fallbacks) == (29, 4)
        assert sum(1 for index in used if index) == 2  # replays from an older one
        assert recorded == [True] * (1 + fallbacks)
        (recipes,) = sim.network._recipes.values()
        assert len(recipes) == _RECIPES_PER_PLAN < len(recorded)
        assert plain == run(audit=True)[0]

    @pytest.mark.parametrize(
        "setup", ["alone", "record_ops", "preemption", "shared_wire", "second_pending"]
    )
    def test_start_solo_needs_the_collective_alone(self, setup):
        sim = NetworkSimulator(three_dim_topology(), record_ops=False, audit=False)
        result = sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, MB))
        if setup == "record_ops":
            sim.record_ops = True
        elif setup == "preemption":
            sim.enable_preemption()
        elif setup == "shared_wire":
            sim.set_tenant_weights({})
        elif setup == "second_pending":
            sim.submit(CollectiveRequest(CollectiveType.ALL_GATHER, MB))
        assert sim.start_solo(result) == (setup == "alone")
        sim.run()
        sim.end_solo()
        assert result.done

    def test_auditor_forces_the_event_path(self):
        sim = TrainingSimulator(
            transformer_1t(num_layers=2), get_topology("2D-SW_SW"), audit=True
        )
        sim.run()
        assert not sim.network._recipes


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
