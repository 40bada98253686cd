"""One dispatcher for every scenario mode, plus the grid sweep runner.

``run(spec)`` turns any :class:`~repro.api.spec.ScenarioSpec` into a
:class:`~repro.api.report.RunReport` by driving the matching subsystem —
the network simulator for collectives, the training simulator for single
jobs, the cluster simulator for multi-tenant traces, the analytic
provisioning assessment — and normalizing the result into the uniform
report shape.  ``sweep(base, axes)`` runs a cartesian grid of spec
variants, optionally on a process pool.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from ..analysis.provisioning import assess
from ..collectives.types import CollectiveRequest, CollectiveType
from ..core.ideal import IdealEstimator
from ..core.scheduler import SchedulerFactory
from ..core.splitter import Splitter
from ..errors import EventBudgetError, SpecError
from ..sim.network import NetworkSimulator
from ..sim.stats import bw_utilization
from ..training.iteration import TrainingSimulator
from .report import RunReport, SweepPoint, SweepResult
from .spec import (
    ClusterScenario,
    CollectiveScenario,
    ProvisioningScenario,
    ScenarioSpec,
    TrainingScenario,
    _plain,
    _set_dotted,
    resolve_topology,
    resolve_workload,
    spec_from_dict,
)


#: Per-job payload rows are capped so a 10k-arrival open-loop run does not
#: serialize a 10k-row report; the ``steady_state`` digest, read from every
#: job's record, covers them all, and ``job_rows_omitted`` records the cut.
_JOB_ROW_CAP = 200


def scheduler_label(scheduler: str, policy: str) -> str:
    """Display label used across experiments (``Baseline`` / ``Themis+SCF``)."""
    if scheduler.lower() == "baseline":
        return "Baseline"
    return f"Themis+{policy.upper()}"


def _run_collective(
    spec: CollectiveScenario,
    context: dict | None = None,
    audit: bool | None = None,
) -> RunReport:
    topology = resolve_topology(spec.topology)
    ctype = CollectiveType.from_name(spec.collective)
    sim = NetworkSimulator(
        topology,
        SchedulerFactory(spec.scheduler, splitter=Splitter(spec.chunks)),
        policy=spec.policy,
        audit=audit,
    )
    sim.submit(CollectiveRequest(ctype, spec.size))
    truncated = False
    try:
        result = sim.run(max_events=spec.max_events)
    except EventBudgetError:
        truncated = True
        result = sim.result()
    utilization = (
        bw_utilization(result) if result.comm_active_seconds > 0 else None
    )
    ideal_time = IdealEstimator().collective_time(ctype, spec.size, topology)
    comm_time = result.makespan
    return RunReport(
        mode=spec.mode,
        spec=spec.to_dict(),
        makespan=comm_time,
        events=sim.engine.events_processed,
        avg_utilization=utilization.average if utilization else None,
        per_dim_utilization=tuple(utilization.per_dim) if utilization else None,
        truncated=truncated,
        payload={
            "topology": topology.name,
            "collective": ctype.value,
            "scheduler": spec.scheduler,
            "scheduler_label": scheduler_label(spec.scheduler, spec.policy),
            "policy": spec.policy,
            "size": spec.size,
            "chunks": spec.chunks,
            "comm_time": comm_time,
            "ideal_time": ideal_time,
            "completed_collectives": len(result.completed_collectives),
        },
        detail=result,
    )


def _run_training(
    spec: TrainingScenario,
    context: dict | None = None,
    audit: bool | None = None,
) -> RunReport:
    workload = resolve_workload(spec.workload, spec.workload_args)
    topology = resolve_topology(spec.topology)
    sim = TrainingSimulator(
        workload,
        topology,
        scheduler=spec.scheduler,
        config=spec.to_config(),
        ideal_network=spec.ideal_network,
        audit=audit,
        backend=spec.backend,
        backend_options=spec.backend_options,
    )
    if spec.faults is not None:
        # Spec validation already rejected fault-incapable backends, so
        # the network here always has real links to degrade.
        schedule, _ = spec.faults.to_runtime()
        if schedule is not None:
            sim.network.apply_fault_schedule(schedule)
    report = sim.run()
    per_dim = None
    if sim.network.provides_result and sim.loop.collectives_issued:
        network_result = sim.network.result()
        if network_result.comm_active_seconds > 0:
            per_dim = tuple(bw_utilization(network_result).per_dim)
    total = report.total
    return RunReport(
        mode=spec.mode,
        spec=spec.to_dict(),
        makespan=report.total_time,
        events=sim.engine.events_processed,
        avg_utilization=report.avg_bw_utilization,
        per_dim_utilization=per_dim,
        payload={
            "workload": report.workload_name,
            "topology": report.topology_name,
            "scheduler": spec.scheduler,
            "scheduler_label": report.scheduler_name,
            "policy": spec.policy,
            "backend": sim.backend_name,
            "iterations": len(report.iterations),
            "collective_count": report.collective_count,
            "fwd_compute": total.fwd_compute,
            "bwd_compute": total.bwd_compute,
            "exposed_mp": total.exposed_mp,
            "exposed_dp": total.exposed_dp,
            "compute": total.compute,
            "exposed_comm": total.exposed_comm,
            "total_time": report.total_time,
        },
        detail=report,
    )


def _run_cluster(
    spec: ClusterScenario,
    context: dict | None = None,
    audit: bool | None = None,
) -> RunReport:
    from ..cluster import (
        ClusterSimulator,
        derive_open_loop_rate,
        mix_mean_service_time,
    )

    topology = resolve_topology(spec.topology)
    config = spec.to_config(audit=audit)
    # The rate calibration and the run share one cache, so each solo
    # baseline is simulated once.
    isolated_cache: dict[tuple, float] = {}
    if context is not None:
        # Isolated JCTs are policy-independent but do depend on the
        # platform and shared-network knobs, so the cross-run cache is
        # scoped by them: a fairness sweep shares its solo baselines, a
        # topology sweep does not.
        scope = json.dumps(
            {
                "topology": spec.topology,
                "policy": spec.policy,
                "chunks": spec.chunks,
                "overlap_dp": spec.overlap_dp,
                "dp_bucket_bytes": spec.dp_bucket_bytes,
                # Isolated JCTs are fidelity-specific: a backend sweep must
                # not reuse another backend's solo baselines.
                "backend": spec.backend,
                "backend_options": spec.backend_options,
            },
            sort_keys=True,
        )
        isolated_cache = context.setdefault(("isolated_jct", scope), {})
    calibrated_rate = None
    if spec.open_loop is not None and spec.open_loop.rate is None:
        # target_rho mode: derive the arrival rate from the mix's mean
        # isolated service demand (one cached solo run per workload rung).
        slots = (
            spec.open_loop.calibration_slots
            if spec.open_loop.calibration_slots is not None
            else spec.max_concurrent
        )
        assert slots is not None  # enforced by the spec
        assert spec.open_loop.mix is not None  # the spec fills in the default
        mean_service = mix_mean_service_time(
            topology,
            spec.open_loop.mix,
            config,
            schedulers=spec.open_loop.schedulers,
            cache=isolated_cache,
        )
        calibrated_rate = derive_open_loop_rate(
            spec.open_loop.target_rho, mean_service, slots
        )
    jobs = spec.to_jobs(open_loop_rate=calibrated_rate)
    sim = ClusterSimulator(
        topology, jobs, config, isolated_cache=isolated_cache
    )
    report = sim.run(max_events=spec.max_events)
    job_rows = [
        {
            "name": job.name,
            "workload": job.workload_name,
            "scheduler": job.scheduler_name,
            "arrival_time": job.arrival_time,
            "finish_time": job.finish_time,
            "jct": job.jct,
            "isolated_time": job.isolated_time,
            "rho": job.rho,
            "queueing_delay": job.queueing_delay,
            "comm_active_seconds": job.comm_active_seconds,
            "placement": (
                list(job.placement) if job.placement is not None else None
            ),
            "attempts": job.attempts,
            "failed": job.failed,
            "lost_work": job.lost_work,
        }
        for job in report.jobs[:_JOB_ROW_CAP]
    ]
    utilization = report.utilization
    payload = {
        "topology": report.topology_name,
        "backend": sim.backend_name,
        "jobs": job_rows,
        "job_rows_omitted": max(0, len(report.jobs) - _JOB_ROW_CAP),
        "total_jobs": report.total_jobs,
        "unfinished_jobs": [job.name for job in report.unfinished_jobs],
        "failed_jobs": [job.name for job in report.failed_jobs],
        "total_retries": report.total_retries,
        "lost_work_seconds": report.lost_work_seconds,
        "completion_rate": report.completion_rate,
        "fault_timeline": (
            [list(entry) for entry in sim.network.fault_timeline]
            if config.link_faults is not None
            else None
        ),
        "mean_jct": report.mean_jct,
        "max_jct": report.max_jct,
        "mean_rho": report.mean_rho,
        "max_rho": report.max_rho,
        "jains_fairness_index": report.jains_fairness_index,
        "fairness": report.fairness_name,
        "placement": report.placement_name,
        "dim_load": list(report.dim_load),
        "load_imbalance": report.load_imbalance,
        "preemption_count": report.preemption_count,
        "comm_active_seconds": report.comm_active_seconds,
        "peak_live_jobs": report.peak_live_jobs,
        # Machine-independent engine counters: identical inputs must
        # reproduce these exactly, so the perf-regression gate diffs them.
        "engine": {
            "events": sim.engine.events_processed,
            "peak_pending_events": sim.engine.peak_pending,
            "cancelled_events": sim.engine.cancelled_events,
            "compactions": sim.engine.compactions,
        },
        "stopped_at": report.stopped_at,
        "arrival_rate": calibrated_rate
        if calibrated_rate is not None
        else (spec.open_loop.rate if spec.open_loop is not None else None),
        "steady_state": (
            report.steady_state.to_dict()
            if report.steady_state is not None
            else None
        ),
    }
    return RunReport(
        mode=spec.mode,
        spec=spec.to_dict(),
        makespan=report.makespan,
        events=sim.engine.events_processed,
        avg_utilization=utilization.average if utilization else None,
        per_dim_utilization=tuple(utilization.per_dim) if utilization else None,
        truncated=report.truncated,
        payload=payload,
        detail=report,
    )


def _run_provisioning(
    spec: ProvisioningScenario,
    context: dict | None = None,
    audit: bool | None = None,
) -> RunReport:
    topology = resolve_topology(spec.topology)
    ctype = CollectiveType.from_name(spec.collective)
    report = assess(topology, tolerance=spec.tolerance, ctype=ctype)
    return RunReport(
        mode=spec.mode,
        spec=spec.to_dict(),
        makespan=0.0,
        events=0,
        payload={
            "topology": report.topology_name,
            "collective": ctype.value,
            "assessments": [
                {
                    "dim_k": a.dim_k,
                    "dim_l": a.dim_l,
                    "ratio": a.ratio,
                    "scenario": a.scenario.value,
                }
                for a in report.assessments
            ],
            "max_utilization": report.max_utilization,
            "baseline_efficient": report.baseline_efficient,
        },
        detail=report,
    )


_RUNNERS = {
    CollectiveScenario: _run_collective,
    TrainingScenario: _run_training,
    ClusterScenario: _run_cluster,
    ProvisioningScenario: _run_provisioning,
}


def run(
    spec: "ScenarioSpec | dict",
    *,
    context: dict | None = None,
    audit: bool | None = None,
) -> RunReport:
    """Run any scenario spec (or its dict form) and report uniformly.

    ``context`` is an optional scratchpad shared across related runs:
    :func:`sweep` passes one per grid so policy-independent intermediate
    results (currently the cluster isolated-JCT baselines) are computed
    once instead of once per point.

    ``audit=True`` enables the runtime invariant auditor
    (:mod:`repro.sim.audit`) for this run; ``None`` (default) defers to the
    ``THEMIS_AUDIT`` environment variable.  Auditing is observer-only — the
    reported timeline is bit-identical with it on or off — and a violated
    invariant raises :class:`~repro.sim.audit.InvariantViolation`.
    """
    if isinstance(spec, dict):
        spec = spec_from_dict(spec)
    runner = _RUNNERS.get(type(spec))
    if runner is None:
        raise SpecError(
            f"no runner for spec type {type(spec).__name__}; "
            f"known: {', '.join(cls.__name__ for cls in _RUNNERS)}"
        )
    start = time.perf_counter()
    report = runner(spec, context, audit)
    report.wall_time = time.perf_counter() - start
    return report


def _run_spec_payload(data: dict, audit: bool | None = None) -> dict:
    """Process-pool worker: run a spec dict, return the report dict."""
    return run(spec_from_dict(data), audit=audit).to_dict()


def _normalize_axes(
    axes: Mapping[Any, Sequence[Any]],
) -> list[tuple[tuple[str, ...], list[Any]]]:
    """Axis keys are dotted field paths; ``"a+b"`` (or a tuple) couples
    fields so their values vary together instead of as a product."""
    normalized: list[tuple[tuple[str, ...], list[Any]]] = []
    for key, values in axes.items():
        fields = tuple(key) if isinstance(key, (tuple, list)) else tuple(
            part.strip() for part in str(key).split("+")
        )
        if not fields or not all(fields):
            raise SpecError(f"bad sweep axis key {key!r}")
        values = list(values)
        if not values:
            raise SpecError(f"sweep axis {key!r} has no values")
        if len(fields) > 1:
            for value in values:
                if not isinstance(value, (tuple, list)) or len(value) != len(fields):
                    raise SpecError(
                        f"coupled axis {key!r} needs {len(fields)}-element "
                        f"values, got {value!r}"
                    )
        normalized.append((fields, values))
    return normalized


def sweep(
    base_spec: "ScenarioSpec | dict",
    axes: Mapping[Any, Sequence[Any]],
    processes: int | None = None,
    audit: bool | None = None,
) -> SweepResult:
    """Run the cartesian grid of ``base_spec`` with ``axes`` overridden.

    ``axes`` maps dotted field paths to value lists (``{"topology": [...],
    "size": [...]}``); a ``"scheduler+policy"`` key varies several fields
    together (each value a tuple).  Points run in deterministic grid order
    — later axes vary fastest — and any seed in the base spec is applied
    verbatim to every point, so grids are reproducible run-to-run and
    point-by-point.

    ``processes > 1`` runs points on a process pool; reports then carry no
    in-memory ``detail`` object (they cross a process boundary), while the
    default in-process path keeps it.  A point whose run hits the spec's
    ``max_events`` budget comes back flagged ``truncated`` rather than
    failing the sweep.
    """
    if isinstance(base_spec, dict):
        base_spec = spec_from_dict(base_spec)
    base = base_spec.to_dict()
    normalized = _normalize_axes(axes)
    # (spec dict, validated spec, overrides record) per grid cell — every
    # point is validated up front so a bad axis value fails before any
    # simulation work runs, and the validated object is reused by the
    # in-process path.
    grid: list[tuple[dict, ScenarioSpec, dict]] = []
    for combo in itertools.product(*(values for _, values in normalized)):
        data = copy.deepcopy(base)
        overrides: dict[str, Any] = {}
        for (fields, _), value in zip(normalized, combo):
            values = value if len(fields) > 1 else (value,)
            for field_path, field_value in zip(fields, values):
                _set_dotted(data, field_path, _plain(field_value))
                overrides[field_path] = field_value
        grid.append((data, spec_from_dict(data), overrides))

    points: list[SweepPoint] = []
    if processes is not None and processes > 1 and len(grid) > 1:
        worker = functools.partial(_run_spec_payload, audit=audit)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(worker, (d for d, _, _ in grid)))
        for (_, _, overrides), result in zip(grid, results):
            points.append(SweepPoint(overrides, RunReport.from_dict(result)))
    else:
        shared_context: dict = {}
        for _, spec, overrides in grid:
            points.append(
                SweepPoint(overrides, run(spec, context=shared_context, audit=audit))
            )
    return SweepResult(base=base, axes=normalized, points=points)
