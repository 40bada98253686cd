"""End-to-end training-iteration simulator (paper Sec. 5.2 / Fig. 12).

Co-simulates one NPU's compute timeline with the network simulator on a
shared event engine:

* **forward**: layers run in order; blocking model-parallel collectives
  (Megatron-style activation All-Reduces) stall the pass; asynchronous
  attachments (DLRM's embedding All-to-All) are issued and awaited at the
  layer that declared the matching wait label;
* **backward**: layers run in reverse; on completing a layer's backward
  compute its weight gradients enter the current data-parallel bucket;
  full buckets issue their collective immediately (overlapping with the
  remaining backward compute);
* **iteration end**: all outstanding data-parallel collectives are awaited
  (ZeRO-2 additionally All-Gathers the updated parameter shards first).

Stall time at waits is attributed to exposed-MP or exposed-DP, reproducing
Fig. 12's decomposition.  The network can be the real simulator (baseline /
Themis schedulers) or the Ideal fluid network of Table 3.

The iteration logic itself lives in :class:`TrainingLoop`, which expresses
one iteration as a lazy sequence of :class:`ComputeStep` / :class:`WaitStep`
items and leaves the *clock* to its driver.  :class:`TrainingSimulator`
drives a single job synchronously (it owns the engine, so it can simply run
it forward); the multi-job cluster simulator (``repro.cluster``) drives many
loops event-by-event on one shared engine and network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterator

from ..collectives.types import CollectiveRequest, CollectiveType
from ..core.scheduler import SchedulerFactory
from ..core.splitter import Splitter
from ..errors import SimulationError, WorkloadError
from ..numeric import is_count
from ..sim.backends import get_backend, resolve_backend_key
from ..sim.backends.ideal import IdealNetwork
from ..sim.backends.packet import PacketNetwork
from ..sim.engine import EventQueue
from ..sim.executor import FusionConfig
from ..sim.network import CollectiveResult, NetworkSimulator
from ..sim.stats import bw_utilization
from ..topology import Topology
from ..workloads.base import Workload
from ..workloads.compute import ComputeModel
from ..workloads.layers import CommAttachment, Layer
from ..workloads.parallelism import CommScope
from .results import IterationBreakdown, TrainingReport


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of the training-loop simulation.

    Attributes
    ----------
    iterations:
        Number of iterations to simulate (the paper's Fig. 12 shows 3).
    compute:
        Roofline compute model.
    dp_bucket_bytes:
        Gradient-bucket size for data-parallel collectives.  ``None`` issues
        one collective per layer (ASTRA-sim-style); larger buckets coalesce
        layers (DDP-style) which trades overlap for fewer, bigger
        collectives.
    chunks_per_collective:
        Splitter granularity for the real network simulator.
    policy / fusion:
        Intra-dimension policy and fusion config for the network simulator.
    overlap_dp:
        When True (DDP-style), gradient buckets issue their collective as
        soon as they fill during backprop, overlapping with the remaining
        backward compute.  When False, every data-parallel collective is
        issued at the end of back-propagation and is fully exposed — the
        paper's accounting ("exposed communication occurs at the end of
        back-propagation", Sec. 6.2).
    """

    iterations: int = 1
    compute: ComputeModel = ComputeModel()
    dp_bucket_bytes: float | None = None
    chunks_per_collective: int = 64
    policy: str = "SCF"
    fusion: FusionConfig | None = None
    overlap_dp: bool = True
    #: Priority for blocking model-parallel collectives over background
    #: data-parallel gradient traffic (NCCL-priority-stream style).
    mp_priority: int = 1

    def __post_init__(self) -> None:
        if not is_count(self.iterations):
            raise WorkloadError(
                f"iterations must be an integer >= 1, got {self.iterations!r}"
            )
        if self.dp_bucket_bytes is not None and not (
            0 < self.dp_bucket_bytes < math.inf
        ):
            raise WorkloadError(
                f"bucket bytes must be positive and finite, "
                f"got {self.dp_bucket_bytes}"
            )
        Splitter(self.chunks_per_collective)  # checks the chunk count


@dataclass(frozen=True)
class ComputeStep:
    """Advance the job's compute clock by ``duration`` seconds.

    ``phase`` is ``"fwd"`` or ``"bwd"`` so drivers can attribute the time
    to the right breakdown bar.
    """

    duration: float
    phase: str


@dataclass(frozen=True)
class WaitStep:
    """Block the job until ``handle`` completes.

    The stall (time from reaching this step to the handle's completion) is
    attributed to ``"mp"`` or ``"dp"`` exposed communication.
    """

    handle: CollectiveResult
    attribution: str


class TrainingLoop:
    """One training job's iteration program on a (possibly shared) network.

    Holds all per-job state — communicator plan, gradient buckets, async
    handles — and yields the job's timeline as :class:`ComputeStep` /
    :class:`WaitStep` items from :meth:`iteration_steps`.  The generator
    submits collectives as its driver reaches the matching points in
    simulated time, so it must only be advanced while the shared engine
    clock sits at the job's current position.

    Parameters
    ----------
    workload / platform / network / engine / config:
        As for :class:`TrainingSimulator`; ``network`` and ``engine`` may be
        shared with other loops (multi-job cluster simulation).
    scheduler_factory:
        Optional per-job :class:`SchedulerFactory` passed through on every
        submission, overriding the shared network's default scheduler.
    dim_indices:
        Restrict the job's communicators to this subset of the platform's
        dimensions (the job's slice of the cluster).  The workload's
        parallelism plan is computed on the sub-topology and its scopes are
        translated back to platform dimensions at submission time.
    priority_boost:
        Added to every request's priority (cluster job priorities).
    owner:
        Tenant identity stamped on every request for per-job comm-active
        accounting.
    on_collective_complete:
        Optional callback invoked with each finished
        :class:`CollectiveResult`; event-driven drivers use it to resume.
    """

    def __init__(
        self,
        workload: Workload,
        platform: Topology,
        network: NetworkSimulator | IdealNetwork | PacketNetwork,
        engine: EventQueue,
        config: TrainingConfig | None = None,
        *,
        scheduler_factory: SchedulerFactory | None = None,
        dim_indices: tuple[int, ...] | None = None,
        priority_boost: int = 0,
        owner: str = "",
        on_collective_complete: Callable[[CollectiveResult], None] | None = None,
    ) -> None:
        self.workload = workload
        self.platform = platform
        self.network = network
        self.engine = engine
        self.config = config or TrainingConfig()
        self.scheduler_factory = scheduler_factory
        self.dim_indices = tuple(dim_indices) if dim_indices is not None else None
        self.priority_boost = priority_boost
        self.owner = owner
        self.on_collective_complete = on_collective_complete
        if self.dim_indices is None:
            self.topology = platform
        else:
            self.topology = platform.subset(
                self.dim_indices, name=f"{platform.name}[{owner or 'job'}]"
            )
        self.plan = workload.plan(self.topology)
        self._async_handles: dict[str, CollectiveResult] = {}
        self._dp_handles: list[CollectiveResult] = []
        self._dp_bucket = 0.0
        self._dp_bucket_sizes: list[float] = []
        self._deferred_dp: list[float] = []
        self.collectives_issued = 0

    def reset_attempt(self) -> None:
        """Drop mid-iteration communication state after a job crash.

        The cluster fault layer aborts an attempt between steps: any
        in-flight collectives keep draining on the shared network (their
        bytes were already injected; the aborted driver ignores their
        completions), but the loop's per-iteration bookkeeping must not
        leak into the retry — a stale async handle would either be waited
        on spuriously or trip the unawaited-collectives check at the next
        iteration boundary.  ``collectives_issued`` stays cumulative
        across attempts (it counts submissions, not useful work).
        """
        self._async_handles.clear()
        self._dp_handles.clear()
        self._dp_bucket = 0.0
        self._dp_bucket_sizes.clear()
        self._deferred_dp.clear()

    # --- low-level helpers ---------------------------------------------------
    def _scope_fields(self, scope: CommScope | None) -> dict:
        """Translate a plan scope (job-local dims) to platform dims."""
        if scope is None or scope.dim_indices is None:
            if self.dim_indices is None:
                return {"dim_indices": None, "peer_counts": None}
            return {"dim_indices": self.dim_indices, "peer_counts": None}
        local = tuple(scope.dim_indices)
        if self.dim_indices is not None:
            parents = tuple(self.dim_indices[i] for i in local)
        else:
            parents = local
        return {"dim_indices": parents, "peer_counts": scope.peer_counts}

    def _submit(
        self, ctype: CollectiveType, size: float, scope: CommScope | None, tag: str
    ) -> CollectiveResult:
        priority = self.priority_boost + (
            self.config.mp_priority if tag == "MP" else 0
        )
        request = CollectiveRequest(
            ctype=ctype, size=size, tag=tag, priority=priority, owner=self.owner,
            **self._scope_fields(scope),
        )
        self.collectives_issued += 1
        kwargs: dict = {"at_time": self.engine.now}
        if self.on_collective_complete is not None:
            kwargs["on_complete"] = self.on_collective_complete
        if self.scheduler_factory is not None and self.network.accepts_scheduler:
            kwargs["scheduler"] = self.scheduler_factory
        return self.network.submit(request, **kwargs)

    # --- comm attachment handling -------------------------------------------
    def _mp_scope(self) -> CommScope | None:
        """Model-parallel collectives span the MP group (or all dims)."""
        return self.plan.mp

    def _attachment_steps(
        self, attachment: CommAttachment
    ) -> Iterator[WaitStep]:
        handle = self._submit(
            attachment.ctype, attachment.size, self._mp_scope(), tag="MP"
        )
        if attachment.blocking:
            yield WaitStep(handle, "mp")
        else:
            self._async_handles[attachment.label] = handle

    def _take_async(self, label: str) -> CollectiveResult:
        handle = self._async_handles.pop(label, None)
        if handle is None:
            raise SimulationError(
                f"wait label {label!r} has no outstanding collective"
            )
        return handle

    # --- data-parallel gradient buckets ---------------------------------------
    def _dp_degree(self) -> int:
        return self.plan.dp_degree(self.topology)

    def _submit_dp_bucket(self, size: float) -> None:
        self._dp_bucket_sizes.append(size)
        ctype = (
            CollectiveType.REDUCE_SCATTER
            if self.workload.dp_style == "zero2"
            else CollectiveType.ALL_REDUCE
        )
        self._dp_handles.append(self._submit(ctype, size, self.plan.dp, tag="DP"))

    def _flush_dp_bucket(self) -> None:
        if self._dp_bucket <= 0 or self.plan.dp is None:
            self._dp_bucket = 0.0
            return
        size = self._dp_bucket
        self._dp_bucket = 0.0
        if self.config.overlap_dp:
            self._submit_dp_bucket(size)
        else:
            self._deferred_dp.append(size)

    def _accumulate_dp(self, layer: Layer) -> None:
        if layer.param_bytes <= 0 or self.plan.dp is None:
            return
        self._dp_bucket += layer.param_bytes
        bucket_limit = self.config.dp_bucket_bytes
        if bucket_limit is None or self._dp_bucket >= bucket_limit:
            self._flush_dp_bucket()

    def _finish_dp_steps(self) -> Iterator[WaitStep]:
        self._flush_dp_bucket()
        for size in self._deferred_dp:
            self._submit_dp_bucket(size)
        self._deferred_dp.clear()
        if self.workload.dp_style == "zero2" and self.plan.dp is not None:
            # ZeRO-2: gather the updated parameter shards before the next
            # iteration.  Each NPU holds bucket/dp_degree after the RS.
            degree = self._dp_degree()
            for size in self._dp_bucket_sizes:
                self._dp_handles.append(
                    self._submit(
                        CollectiveType.ALL_GATHER,
                        size / degree,
                        self.plan.dp,
                        tag="DP",
                    )
                )
        for handle in self._dp_handles:
            yield WaitStep(handle, "dp")
        self._dp_handles.clear()
        self._dp_bucket_sizes.clear()

    # --- iteration program ------------------------------------------------------
    def iteration_steps(self) -> Iterator[ComputeStep | WaitStep]:
        """One training iteration as a lazy compute/wait step sequence."""
        compute = self.config.compute

        # Forward pass.
        for layer in self.workload.layers:
            if layer.fwd_wait_label:
                yield WaitStep(self._take_async(layer.fwd_wait_label), "mp")
            yield ComputeStep(
                compute.time_for(layer.fwd_flops, layer.fwd_mem_bytes), "fwd"
            )
            if layer.fwd_comm is not None:
                yield from self._attachment_steps(layer.fwd_comm)

        # Backward pass (reverse layer order).
        for layer in reversed(self.workload.layers):
            if layer.bwd_wait_label:
                yield WaitStep(self._take_async(layer.bwd_wait_label), "mp")
            yield ComputeStep(
                compute.time_for(layer.bwd_flops, layer.bwd_mem_bytes), "bwd"
            )
            if layer.bwd_comm is not None:
                yield from self._attachment_steps(layer.bwd_comm)
            self._accumulate_dp(layer)

        # Gradient synchronization completes before the next iteration.
        yield from self._finish_dp_steps()
        if self._async_handles:
            raise SimulationError(
                f"unawaited async collectives: {sorted(self._async_handles)}"
            )


class TrainingSimulator:
    """Simulates training iterations of one workload on one platform."""

    def __init__(
        self,
        workload: Workload,
        topology: Topology,
        scheduler: SchedulerFactory | str = "themis",
        config: TrainingConfig | None = None,
        ideal_network: bool = False,
        audit: bool | None = None,
        backend: str | None = None,
        backend_options: dict | None = None,
    ) -> None:
        self.workload = workload
        self.topology = topology
        self.config = config or TrainingConfig()
        self.engine = EventQueue()
        self.backend_name = resolve_backend_key(
            backend, ideal_network=ideal_network
        )
        impl = get_backend(self.backend_name)
        if isinstance(scheduler, str):
            scheduler = SchedulerFactory(
                scheduler,
                splitter=Splitter(self.config.chunks_per_collective),
            )
        self.network: NetworkSimulator | IdealNetwork | PacketNetwork = (
            impl.build(
                topology,
                scheduler=scheduler,
                policy=self.config.policy,
                fusion=self.config.fusion,
                engine=self.engine,
                record_ops=False,  # nothing in a training report reads them
                audit=audit,
                options=backend_options,
            )
        )
        if not impl.accepts_scheduler:
            self.scheduler_name = "Ideal"
        else:
            policy_tag = self.config.policy.upper()
            base = scheduler.name
            # The policy tag marks the analytical intra-dimension queue
            # discipline; other fidelities have their own (e.g. FIFO wire).
            self.scheduler_name = (
                f"{base}+{policy_tag}"
                if base == "Themis" and self.backend_name == "analytical"
                else base
            )
        self.loop = TrainingLoop(
            workload, topology, self.network, self.engine, self.config
        )
        self.plan = self.loop.plan

    # --- clock driving --------------------------------------------------------
    def _advance_compute(self, duration: float) -> None:
        """Advance the NPU's compute clock, letting network events fire."""
        if duration < 0:
            raise SimulationError(f"negative compute duration {duration}")
        self.engine.run_until(self.engine.now + duration)

    def _wait(self, handle: CollectiveResult) -> float:
        """Block until a collective completes; returns the stall time.

        A collective that runs alone on the analytical network may be
        replayed instead of simulated (see
        :meth:`NetworkSimulator.start_solo`).
        """
        start = self.engine.now
        network = self.network
        if isinstance(network, NetworkSimulator):
            network.start_solo(handle)
        while not handle.done:
            if not self.engine.step():
                raise SimulationError(
                    f"deadlock waiting on collective {handle.request.tag!r}"
                )
        if handle.completion_time > self.engine.now:  # pragma: no cover
            raise SimulationError("collective completed in the future")
        # The engine may legitimately sit exactly at the completion instant.
        end = max(start, handle.completion_time)
        self.engine.run_until(end)
        if isinstance(network, NetworkSimulator):
            network.end_solo()
        return end - start

    # --- iteration driver ------------------------------------------------------
    def _run_iteration(self) -> IterationBreakdown:
        breakdown = IterationBreakdown()
        for step in self.loop.iteration_steps():
            if isinstance(step, ComputeStep):
                self._advance_compute(step.duration)
                breakdown.add_compute(step.phase, step.duration)
            else:
                breakdown.add_stall(step.attribution, self._wait(step.handle))
        return breakdown

    def run(self) -> TrainingReport:
        """Simulate ``config.iterations`` iterations and report."""
        report = TrainingReport(
            workload_name=self.workload.name,
            topology_name=self.topology.name,
            scheduler_name=self.scheduler_name,
        )
        for _ in range(self.config.iterations):
            report.iterations.append(self._run_iteration())
        self.engine.run()  # drain any same-instant residue
        report.collective_count = self.loop.collectives_issued
        if self.network.provides_result and self.loop.collectives_issued:
            result = self.network.result()
            report.avg_bw_utilization = bw_utilization(result).average
        return report


def simulate_training(
    workload: Workload,
    topology: Topology,
    scheduler: str = "themis",
    config: TrainingConfig | None = None,
    ideal_network: bool = False,
    backend: str | None = None,
    backend_options: dict | None = None,
) -> TrainingReport:
    """One-call convenience wrapper around :class:`TrainingSimulator`."""
    simulator = TrainingSimulator(
        workload, topology, scheduler=scheduler, config=config,
        ideal_network=ideal_network, backend=backend,
        backend_options=backend_options,
    )
    return simulator.run()
