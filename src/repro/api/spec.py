"""Declarative scenario specs: one serializable description per run mode.

A :class:`ScenarioSpec` names everything a simulation run needs by
**registry key** (topology preset, workload, scheduler, intra-dimension
policy, fairness policy — see ``repro.api.registry``) plus plain scalars,
so a complete experiment configuration is a small JSON document:

* lossless round trip — ``from_dict(to_dict(spec)) == spec`` for every
  scenario type, through JSON included;
* versioned schema — every serialized spec carries ``"schema"``; newer
  documents are rejected with a clear upgrade message;
* strict validation — every field is read by its declared type
  (:mod:`repro.typed`: ``"false"`` is no bool, a string no list), and a
  spec is valid when the runtime objects it describes can be built, so
  construction builds them (each range rule lives once, on the runtime
  type that uses the field) and re-raises their errors as
  :class:`SpecError`; on top, unknown keys and registry keys get a
  did-you-mean hint, and cross-field rules are checked here;
* dotted overrides — ``spec.with_overrides({"trace.seed": "3"})`` rebuilds
  a spec with nested fields replaced (the CLI's ``--set``, and the axis
  mechanism of :func:`repro.api.sweep`).

Custom components stay expressible: a topology may be an inline dict (the
``repro.topology.serialization`` schema) instead of a preset name, and a
workload an inline dict (``repro.workloads.serialization``) instead of a
registry key — both serialize with the spec.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Any, ClassVar, TypeVar

from ..cluster import ClusterConfig, WeightedSharing
from ..cluster.jobs import (
    JobMix,
    JobSpec,
    check_open_loop_args,
    check_unique_names,
    derive_open_loop_rate,
    open_loop_trace,
    poisson_trace,
)
from ..collectives.types import CollectiveType
from ..errors import CollectiveError, SpecError
from ..numeric import is_count
from ..sim.backends import get_backend, resolve_backend_key
from ..sim.faults import FaultSchedule, JobFaultPolicy, LinkFault
from ..topology import Topology, topology_from_dict, topology_to_dict
from ..training.iteration import TrainingConfig
from ..typed import Count, Typed, built
from ..units import GB, parse_size
from ..workloads import WORKLOADS, Workload, workload_from_dict, workload_to_dict
from .registry import COLLECTIVE_KEYS, did_you_mean, resolve, validate_key

_T = TypeVar("_T")

#: Version stamped into every serialized spec.  Bump when a field changes
#: meaning; loaders reject documents newer than what they understand.
SCHEMA_VERSION = 1


# --- shared helpers ---------------------------------------------------------
def _check_schema(data: dict, where: str) -> None:
    version = data.get("schema", SCHEMA_VERSION)
    if not is_count(version):
        raise SpecError(f"{where}: bad schema version {version!r}")
    if version > SCHEMA_VERSION:
        raise SpecError(
            f"{where}: schema version {version} is newer than the supported "
            f"{SCHEMA_VERSION}; upgrade the library to load this spec"
        )


def _built(where: str, build: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
    """``build(*args, **kwargs)``, its library errors re-raised as SpecError.

    A spec validates by building the runtime objects it describes, so each
    range rule lives once, on the runtime type that uses the field.
    """
    return built(SpecError, where, build, *args, **kwargs)


def _fit_topology(
    value: "str | dict", schedule: Any, slices: Iterable[tuple[int, ...]] = ()
) -> None:
    """Every dimension a fault or job slice names must exist on the topology."""
    topology = resolve_topology(value)
    if schedule is not None:
        schedule.restricted_to(topology.ndims)
    for dims in slices:
        topology.subset(dims)


def _size_bytes(value: Any) -> Any:
    """A byte count written as a string like ``"100MB"``, in bytes."""
    return parse_size(value) if isinstance(value, str) else value


#: A byte count, which a spec may also write as a size like ``"100MB"``.
Bytes = Annotated[float, _size_bytes]


def _validate_collective(key: str) -> None:
    """Collective keys go through ``CollectiveType.from_name`` so the short
    aliases (``ar``/``rs``/``ag``/``a2a``) stay valid in specs and CLIs."""
    try:
        CollectiveType.from_name(key)
    except CollectiveError:
        raise SpecError(
            f"unknown collective key {key!r}"
            f"{did_you_mean(key, COLLECTIVE_KEYS)}; "
            f"known: {', '.join(COLLECTIVE_KEYS)} (or ar/rs/ag/a2a)"
        ) from None


def _validate_backend(
    backend: "str | None",
    backend_options: "dict | None",
    *,
    ideal_network: bool = False,
    where: str,
) -> Any:
    """Resolve + capability-check a scenario's network backend fields.

    Returns the backend class (its capability flags drive the
    caller's combination checks).  ``backend_options`` go through the
    backend's own validator, so a packet-option typo is a load-time
    :class:`SpecError` with the backend's did-you-mean hint.
    """
    if backend is not None:
        validate_key("backend", backend)
    impl = get_backend(
        _built(where, resolve_backend_key, backend, ideal_network=ideal_network)
    )
    if backend_options:
        _built(f"{where}: backend_options", impl.validate_options, backend_options)
    return impl


def _inlined(value: Any) -> Any:
    """A live :class:`Topology` or :class:`Workload` as its serialized dict
    (a convenience for Python callers); any other value unchanged."""
    if isinstance(value, Topology):
        return topology_to_dict(value)
    if isinstance(value, Workload):
        return workload_to_dict(value)
    return value


#: A topology or workload: a registry key or an inline serialized dict.
KeyOrDict = Annotated[str | dict, _inlined]


def _workload_object(value: "str | dict", args: dict) -> "str | Workload":
    """What a runtime type takes for a spec's workload (a registry key, with
    ``args``, or an inline serialized dict): the key itself, or the built
    :class:`Workload` when args or a dict describe it."""
    if isinstance(value, dict) and args:
        raise SpecError("workload_args only apply to registry-key workloads")
    if not isinstance(value, dict):
        validate_key("workload", value)
    return resolve_workload(value, args) if args or isinstance(value, dict) else value


def resolve_topology(value: "str | dict") -> Topology:
    """Build the :class:`Topology` a spec's topology field names."""
    if isinstance(value, dict):
        return topology_from_dict(value)
    return resolve("topology", value)


def resolve_workload(value: "str | dict", args: dict | None = None) -> Workload:
    """Build the :class:`Workload` a spec's workload field names; each of
    ``args`` is read by the factory parameter's declared type."""
    if isinstance(value, dict):
        return workload_from_dict(value)
    return WORKLOADS.build(value, "workload_args", **(args or {}))


def parse_cli_value(text: str) -> Any:
    """``--set``/axis values: JSON when it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError):
        return text


def _set_dotted(data: Any, path: str, value: Any) -> None:
    """Set ``a.b.0.c``-style paths inside nested dict/list structures."""
    parts = path.split(".")
    target = data
    for depth, part in enumerate(parts[:-1]):
        if isinstance(target, list):
            try:
                target = target[int(part)]
            except (ValueError, IndexError):
                raise SpecError(
                    f"override path {path!r}: {part!r} is not a valid index "
                    f"into a list of {len(target)}"
                ) from None
        elif isinstance(target, dict):
            if part not in target:
                raise SpecError(
                    f"override path {path!r}: unknown key {part!r}"
                    f"{did_you_mean(part, tuple(target))}"
                )
            if target[part] is None:
                # Vivify optional dict-valued fields (e.g. a null
                # ``backend_options``) so ``--set backend_options.mtu_bytes``
                # works without first setting the whole container.
                target[part] = {}
            target = target[part]
        else:
            prefix = ".".join(parts[:depth])
            raise SpecError(
                f"override path {path!r}: {prefix!r} is a scalar, cannot "
                f"descend into it"
            )
    last = parts[-1]
    if isinstance(target, list):
        try:
            target[int(last)] = value
        except (ValueError, IndexError):
            raise SpecError(
                f"override path {path!r}: {last!r} is not a valid index "
                f"into a list of {len(target)}"
            ) from None
    elif isinstance(target, dict):
        target[last] = value
    else:
        raise SpecError(f"override path {path!r} does not land in a container")


# --- base class -------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec(Typed):
    """Common (de)serialization surface of every scenario type."""

    #: Dispatch key stored in serialized documents.
    mode: ClassVar[str] = "abstract"

    def to_dict(self) -> dict:
        """Plain-dict form: ``{"schema": ..., "mode": ..., <fields>}``."""
        return {"schema": SCHEMA_VERSION, "mode": self.mode, **_plain(self)}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise SpecError(f"{cls.__name__}: spec must be a dict, got {type(data)}")
        _check_schema(data, cls.__name__)
        declared = data.get("mode", cls.mode)
        if declared != cls.mode:
            raise SpecError(
                f"{cls.__name__} cannot load a {declared!r} spec "
                f"(expected mode {cls.mode!r})"
            )
        payload = {k: v for k, v in data.items() if k not in ("schema", "mode")}
        return super().from_dict(payload)

    def with_overrides(self, overrides: dict[str, Any]) -> "ScenarioSpec":
        """Copy with dotted-path overrides applied and re-validated.

        String values are parsed as JSON when possible (``"3"`` -> 3,
        ``"null"`` -> None) and kept as strings otherwise, which is exactly
        the CLI ``--set dotted.key=value`` behavior.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            if isinstance(value, str):
                value = parse_cli_value(value)
            _set_dotted(data, path, _plain(value))
        return type(self).from_dict(data)


def _plain(value: Any) -> Any:
    """Recursively convert spec values to JSON-plain python."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return {entry.name: _plain(getattr(value, entry.name)) for entry in fields}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


# --- nested cluster pieces --------------------------------------------------
@dataclass(frozen=True)
class ScenarioJob(Typed):
    """One cluster job, serializable (mirrors :class:`repro.cluster.JobSpec`).

    ``workload`` is a registry key (optionally parameterized via
    ``workload_args``) or an inline workload dict.
    """

    name: str
    workload: KeyOrDict = "resnet-152"
    workload_args: dict = field(default_factory=dict)
    arrival_time: float = 0.0
    scheduler: str = "themis"
    iterations: Count = 1
    dim_indices: "tuple[int, ...] | None" = None
    priority: int = 0
    weight: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_key("scheduler", self.scheduler)
        _built("ScenarioJob", self.to_jobspec)

    def _where(self) -> str:
        return f"job {self.name!r}: "

    @classmethod
    def from_jobspec(cls, spec: Any) -> "ScenarioJob":
        """Serializable form of a live :class:`~repro.cluster.JobSpec`.

        Registry-keyed workloads stay keys; workload *instances* are
        inlined losslessly via ``workload_to_dict``.
        """
        return cls(
            name=spec.name,
            workload=spec.workload,
            arrival_time=spec.arrival_time,
            scheduler=spec.scheduler,
            iterations=spec.iterations,
            dim_indices=spec.dim_indices,
            priority=spec.priority,
            weight=spec.weight,
        )

    def to_jobspec(self) -> "Any":
        """The runnable :class:`~repro.cluster.JobSpec` this entry names."""
        return JobSpec(
            name=self.name,
            workload=_workload_object(self.workload, self.workload_args),
            arrival_time=self.arrival_time,
            scheduler=self.scheduler,
            iterations=self.iterations,
            dim_indices=self.dim_indices,
            priority=self.priority,
            weight=self.weight,
        )


@dataclass(frozen=True)
class PoissonTrace(Typed):
    """A generated Poisson arrival trace (see :func:`repro.cluster.poisson_trace`).

    ``interarrival`` is the mean gap in **seconds**; ``schedulers`` is
    cycled across jobs; the trace is fully determined by ``seed``.
    """

    workloads: tuple[str, ...] = ("dlrm", "resnet-152", "gnmt")
    interarrival: float = 2e-3
    seed: int = 0
    schedulers: tuple[str, ...] = ("themis",)
    iterations: Count = 1
    start_time: float = 0.0
    jobs: "Count | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in self.workloads:
            validate_key("workload", name)
        for name in self.schedulers:
            validate_key("scheduler", name)
        _built("PoissonTrace", self.to_jobs)

    def to_jobs(self) -> list:
        """Draw the deterministic job list this trace describes.

        ``jobs`` (when set) rotates ``workloads`` up to that count;
        otherwise one job per workload entry.
        """
        names = list(self.workloads)
        if self.jobs is not None:
            names = list(itertools.islice(itertools.cycle(names), self.jobs))
        return poisson_trace(
            names,
            self.interarrival,
            seed=self.seed,
            schedulers=self.schedulers,
            iterations=self.iterations,
            start_time=self.start_time,
        )


#: :class:`OpenLoopTrace` fields that ``open_loop_trace`` (and its argument
#: check) take unchanged.
_OPEN_LOOP_KNOBS = (
    "duration",
    "max_jobs",
    "process",
    "schedulers",
    "start_time",
    "rate_amplitude",
    "rate_period",
    "burst_on",
    "burst_off",
    "burst_ratio",
)


@dataclass(frozen=True)
class OpenLoopTrace(Typed):
    """A generated open-loop arrival trace (see :func:`repro.cluster.open_loop_trace`).

    Exactly one of ``rate`` (arrivals per second) or ``target_rho``
    (offered load; the runner calibrates the rate from the mix's mean
    isolated service time and the scenario's ``max_concurrent`` slots)
    sets the arrival intensity.  ``mix`` holds the
    :class:`~repro.cluster.JobMix` knobs (elephant/mouse shapes,
    bounded-Pareto tails) as a nested mapping; ``process`` selects the
    arrival process (``"poisson"``, ``"bursty"``, ``"diurnal"``).  The
    trace is fully determined by ``seed``.
    """

    rate: "float | None" = None
    target_rho: "float | None" = None
    #: Service slots the target-rho calibration divides load across.
    #: ``None`` uses the scenario's ``max_concurrent``.  Comm-bound mixes
    #: on one shared network have aggregate capacity of about *one*
    #: network regardless of admission slots — set ``calibration_slots=1``
    #: there so ``target_rho`` means load against the network, not
    #: against the (memory-bounding) concurrency cap.
    calibration_slots: "Count | None" = None
    duration: "float | None" = 0.5
    max_jobs: "Count | None" = None
    process: str = "poisson"
    seed: int = 0
    schedulers: tuple[str, ...] = ("themis",)
    start_time: float = 0.0
    mix: "JobMix | None" = None
    rate_amplitude: float = 0.5
    rate_period: float = 0.25
    burst_on: float = 0.05
    burst_off: float = 0.05
    burst_ratio: float = 4.0
    name_prefix: str = "oj"

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.rate is None) == (self.target_rho is None):
            raise SpecError(
                "an open-loop trace needs exactly one of 'rate' or "
                "'target_rho'"
            )
        if self.calibration_slots is not None and self.target_rho is None:
            raise SpecError("calibration_slots only applies to target_rho")
        for name in self.schedulers:
            validate_key("scheduler", name)
        if self.mix is None:
            object.__setattr__(self, "mix", JobMix())
        _built("OpenLoopTrace", check_open_loop_args, rate=self.rate, **self._knobs())
        if self.target_rho is not None:  # the rate is calibrated at run time
            _built("OpenLoopTrace", derive_open_loop_rate, self.target_rho, 1.0, 1)

    def _knobs(self) -> dict[str, Any]:
        """The fields passed through unchanged to ``open_loop_trace``."""
        return {name: getattr(self, name) for name in _OPEN_LOOP_KNOBS}

    def to_jobs(self, rate: "float | None" = None) -> list:
        """Draw the deterministic job list this trace describes.

        ``rate`` supplies the calibrated arrival rate for ``target_rho``
        traces (the runner computes it from the mix's mean isolated
        service time); explicit-``rate`` traces ignore it.
        """
        resolved = self.rate if self.rate is not None else rate
        if resolved is None:
            raise SpecError(
                "a target_rho trace needs a calibrated rate; run it through "
                "repro.api.run (or pass rate= to to_jobs)"
            )
        return open_loop_trace(
            rate=resolved,
            mix=self.mix,
            seed=self.seed,
            name_prefix=self.name_prefix,
            **self._knobs(),
        )


@dataclass(frozen=True)
class FaultSpec(Typed):
    """Fault-injection description: link degradation plus job crashes.

    The network side composes three sources into one deterministic
    :class:`~repro.sim.FaultSchedule` — explicit timed ``links`` events,
    generated transient ``flap_dims`` flaps, and persistent
    ``straggler_dims`` stragglers (both generators draw from disjoint
    per-dimension substreams of ``seed``).  The job side (``crash_rate``
    and the retry/checkpoint knobs) becomes a
    :class:`~repro.sim.JobFaultPolicy`; ``crash_rate=None`` leaves jobs
    crash-free.  Cluster scenarios accept the full spec; training
    scenarios accept the link half only.
    """

    #: Explicit timed events: mappings of :class:`~repro.sim.LinkFault`
    #: fields (``dim_index``, ``start``, ``factor``, ``duration``, ``label``).
    links: tuple[LinkFault, ...] = ()
    #: Dimensions given generated transient flaps.
    flap_dims: tuple[int, ...] = ()
    flap_count: int = 2
    flap_factor: float = 0.5
    flap_mean_interval: float = 0.01
    flap_mean_duration: float = 0.005
    #: Dimensions given persistent stragglers.
    straggler_dims: tuple[int, ...] = ()
    straggler_factor: float = 0.5
    straggler_probability: float = 1.0
    #: Master seed of the flap/straggler/crash substreams.
    seed: int = 0
    #: Per-job crash hazard (crashes per simulated second); ``None``
    #: disables job failures entirely.
    crash_rate: "float | None" = None
    max_retries: int = 3
    backoff_base: float = 1e-3
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    checkpoint_iterations: "Count | None" = None
    restart_overhead: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _built("FaultSpec", self.to_runtime)

    def to_runtime(self) -> "tuple[Any, Any]":
        """The runnable ``(FaultSchedule | None, JobFaultPolicy | None)``.

        Both generators run even without dimensions (they then draw
        nothing), so their knobs are checked whenever the spec is built.
        """
        schedule = (
            FaultSchedule(self.links)
            + FaultSchedule.flaps(
                self.flap_dims,
                seed=self.seed,
                count=self.flap_count,
                factor=self.flap_factor,
                mean_interval=self.flap_mean_interval,
                mean_duration=self.flap_mean_duration,
            )
            + FaultSchedule.stragglers(
                self.straggler_dims,
                seed=self.seed,
                factor=self.straggler_factor,
                probability=self.straggler_probability,
            )
        )
        policy = None
        if self.crash_rate is not None:
            policy = JobFaultPolicy(
                crash_rate=self.crash_rate,
                max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                backoff_factor=self.backoff_factor,
                backoff_jitter=self.backoff_jitter,
                checkpoint_iterations=self.checkpoint_iterations,
                restart_overhead=self.restart_overhead,
                seed=self.seed,
            )
        return (schedule if schedule else None, policy)


# --- the four scenario types ------------------------------------------------
@dataclass(frozen=True)
class CollectiveScenario(ScenarioSpec):
    """One collective on one topology under one scheduler configuration."""

    mode: ClassVar[str] = "collective"

    topology: KeyOrDict = "3D-SW_SW_SW_homo"
    collective: str = "allreduce"
    size: Bytes = GB
    chunks: Count = 64
    scheduler: str = "themis"
    policy: str = "SCF"
    max_events: "Count | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.size < math.inf:
            raise SpecError(f"size must be positive and finite, got {self.size}")
        _built("topology", resolve_topology, self.topology)
        _validate_collective(self.collective)
        validate_key("scheduler", self.scheduler)
        validate_key("policy", self.policy)


@dataclass(frozen=True)
class TrainingScenario(ScenarioSpec):
    """Training iterations of one workload on one (private) platform."""

    mode: ClassVar[str] = "training"

    workload: KeyOrDict = "resnet-152"
    workload_args: dict = field(default_factory=dict)
    topology: KeyOrDict = "3D-SW_SW_SW_homo"
    scheduler: str = "themis"
    policy: str = "SCF"
    ideal_network: bool = False
    iterations: Count = 1
    overlap_dp: bool = True
    dp_bucket_bytes: "Bytes | None" = None
    chunks: Count = 64
    #: Link-degradation schedule for the private network.  Job-crash knobs
    #: (``crash_rate``) are a cluster concept and rejected here.
    faults: "FaultSpec | None" = None
    #: Network-fidelity backend key (``None`` = the analytical default;
    #: ``ideal_network: true`` is the legacy alias for ``"ideal"``).
    backend: "str | None" = None
    #: Backend-specific knobs (e.g. the packet backend's ``mtu_bytes``).
    backend_options: "dict | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        impl = _validate_backend(
            self.backend,
            self.backend_options,
            ideal_network=self.ideal_network,
            where="TrainingScenario",
        )
        _built("topology", resolve_topology, self.topology)
        validate_key("scheduler", self.scheduler)
        validate_key("policy", self.policy)
        _built("TrainingScenario", self.to_config)
        _built(
            "TrainingScenario", _workload_object, self.workload, self.workload_args
        )
        if self.faults is not None:
            if self.faults.crash_rate is not None:
                raise SpecError(
                    "a training scenario runs one job to completion; "
                    "faults.crash_rate only applies to cluster scenarios"
                )
            if not impl.supports_faults:
                raise SpecError(
                    f"the {impl.key!r} backend has no links to degrade; "
                    "remove 'faults' or use a fault-capable backend"
                )
            schedule, _ = self.faults.to_runtime()
            _built("TrainingScenario", _fit_topology, self.topology, schedule)

    def to_config(self) -> TrainingConfig:
        """The runnable :class:`~repro.training.TrainingConfig` this spec names."""
        return TrainingConfig(
            iterations=self.iterations,
            overlap_dp=self.overlap_dp,
            dp_bucket_bytes=self.dp_bucket_bytes,
            chunks_per_collective=self.chunks,
            policy=self.policy,
        )


@dataclass(frozen=True)
class ClusterScenario(ScenarioSpec):
    """N training jobs contending on one shared network.

    Exactly one of ``jobs`` (explicit), ``trace`` (generated Poisson
    arrivals), or ``open_loop`` (seeded open-loop arrival workload with
    heavy-tailed job mixes) describes the job population.  The
    ``max_concurrent`` / ``warmup_time`` / ``measure_time`` /
    ``outcome_cap`` knobs add admission control and a steady-state
    measurement window (see :class:`~repro.cluster.ClusterConfig`) — open
    loop in the arrivals, bounded in memory, measured past the warm-up
    transient.  ``fairness_weights`` /
    ``fairness_weights_by_dim`` parameterize the ``"weighted"`` policy:
    the former overrides a job's scalar weight, the latter gives a job a
    *different* share per dimension (``{job: {dim index: weight}}``).
    ``placement`` names the placement policy assigning each arriving job
    its dimension subset (``"manual"``, ``"all-dims"``,
    ``"load-balanced"``, ``"interleaved"``, or anything registered);
    ``None`` keeps the default hand placement from each job's
    ``dim_indices``.
    """

    mode: ClassVar[str] = "cluster"

    topology: KeyOrDict = "3D-SW_SW_SW_homo"
    jobs: tuple[ScenarioJob, ...] = ()
    trace: "PoissonTrace | None" = None
    open_loop: "OpenLoopTrace | None" = None
    fairness: "str | None" = None
    placement: "str | None" = None
    fairness_weights: "dict[str, float] | None" = None
    fairness_weights_by_dim: "dict[str, dict[int, float]] | None" = None
    policy: str = "SCF"
    chunks: Count = 64
    overlap_dp: bool = True
    dp_bucket_bytes: "Bytes | None" = None
    isolated_baselines: bool = True
    record_ops: bool = False
    max_events: "Count | None" = None
    max_concurrent: "Count | None" = None
    warmup_time: float = 0.0
    measure_time: "float | None" = None
    outcome_cap: "int | None" = None
    isolated_per_iteration: bool = False
    convergence_epochs: Count = 8
    #: Fault injection: link degradation schedule and/or job crash policy
    #: (``None`` = healthy network, crash-free jobs).
    faults: "FaultSpec | None" = None
    #: Network-fidelity backend key (``None`` = the analytical default).
    backend: "str | None" = None
    #: Backend-specific knobs (e.g. the packet backend's ``mtu_bytes``).
    backend_options: "dict | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _built("topology", resolve_topology, self.topology)
        populations = (
            bool(self.jobs)
            + (self.trace is not None)
            + (self.open_loop is not None)
        )
        if populations != 1:
            raise SpecError(
                "a cluster scenario needs exactly one of 'jobs', 'trace', "
                "or 'open_loop'"
            )
        _built("ClusterScenario", check_unique_names, (j.name for j in self.jobs))
        if (
            self.open_loop is not None
            and self.open_loop.target_rho is not None
            and self.max_concurrent is None
            and self.open_loop.calibration_slots is None
        ):
            raise SpecError(
                "open_loop.target_rho needs max_concurrent (or "
                "open_loop.calibration_slots): offered load is defined "
                "against a fixed number of service slots"
            )
        _validate_backend(self.backend, self.backend_options, where="ClusterScenario")
        if self.fairness is not None:
            validate_key("fairness", self.fairness)
        if self.placement is not None:
            validate_key("placement", self.placement)
        for name in ("fairness_weights", "fairness_weights_by_dim"):
            if getattr(self, name) is not None and self.fairness != "weighted":
                raise SpecError(
                    f"{name} requires fairness='weighted', got {self.fairness!r}"
                )
        validate_key("policy", self.policy)
        config = _built("ClusterScenario", self.to_config)
        slices = [j.dim_indices for j in self.jobs if j.dim_indices is not None]
        if slices or config.link_faults is not None:
            _built(
                "ClusterScenario",
                _fit_topology,
                self.topology,
                config.link_faults,
                slices,
            )

    def to_config(self, audit: bool | None = None) -> ClusterConfig:
        """The runnable :class:`~repro.cluster.ClusterConfig` this spec names,
        fault schedule and job-crash policy included.  ``audit`` is the
        run option of the same name (see :func:`repro.api.run`)."""
        fairness: Any = self.fairness
        if self.fairness == "weighted" and (
            self.fairness_weights or self.fairness_weights_by_dim
        ):
            fairness = WeightedSharing(
                weights=self.fairness_weights,
                weights_by_dim=self.fairness_weights_by_dim,
            )
        link_faults, job_faults = (
            self.faults.to_runtime() if self.faults is not None else (None, None)
        )
        return ClusterConfig(
            training=TrainingConfig(
                overlap_dp=self.overlap_dp,
                dp_bucket_bytes=self.dp_bucket_bytes,
                chunks_per_collective=self.chunks,
                policy=self.policy,
            ),
            isolated_baselines=self.isolated_baselines,
            fairness=fairness,
            placement=self.placement,
            record_ops=self.record_ops,
            audit=audit,
            max_concurrent=self.max_concurrent,
            warmup_time=self.warmup_time,
            measure_time=self.measure_time,
            outcome_cap=self.outcome_cap,
            isolated_per_iteration=self.isolated_per_iteration,
            convergence_epochs=self.convergence_epochs,
            link_faults=link_faults,
            job_faults=job_faults,
            backend=self.backend,
            backend_options=self.backend_options,
        )

    def to_jobs(self, open_loop_rate: "float | None" = None) -> list:
        """The runnable :class:`~repro.cluster.JobSpec` list.

        ``open_loop_rate`` supplies the calibrated arrival rate for
        ``open_loop.target_rho`` scenarios (see
        :meth:`OpenLoopTrace.to_jobs`).
        """
        if self.trace is not None:
            return self.trace.to_jobs()
        if self.open_loop is not None:
            return self.open_loop.to_jobs(rate=open_loop_rate)
        return [job.to_jobspec() for job in self.jobs]


@dataclass(frozen=True)
class ProvisioningScenario(ScenarioSpec):
    """Sec. 6.3 BW-distribution assessment of one topology (analytic)."""

    mode: ClassVar[str] = "provisioning"

    topology: KeyOrDict = "3D-SW_SW_SW_homo"
    tolerance: float = 0.01
    collective: str = "allreduce"

    def __post_init__(self) -> None:
        super().__post_init__()
        _built("topology", resolve_topology, self.topology)
        _validate_collective(self.collective)
        if not 0 <= self.tolerance < 1:
            raise SpecError(
                f"tolerance must be in [0, 1), got {self.tolerance}"
            )


#: Serialized ``mode`` -> scenario class.
SCENARIO_TYPES: dict[str, type[ScenarioSpec]] = {
    cls.mode: cls
    for cls in (
        CollectiveScenario,
        TrainingScenario,
        ClusterScenario,
        ProvisioningScenario,
    )
}


def spec_from_dict(data: dict) -> ScenarioSpec:
    """Load any scenario spec, dispatching on its ``"mode"`` key."""
    if not isinstance(data, dict):
        raise SpecError(f"spec must be a dict, got {type(data)}")
    _check_schema(data, "spec")
    mode = data.get("mode")
    if mode is None:
        raise SpecError(
            f"spec needs a 'mode' key; one of: {', '.join(SCENARIO_TYPES)}"
        )
    cls = SCENARIO_TYPES.get(mode) if isinstance(mode, str) else None
    if cls is None:
        raise SpecError(
            f"unknown scenario mode {mode!r}"
            f"{did_you_mean(str(mode), tuple(SCENARIO_TYPES))}; "
            f"known: {', '.join(SCENARIO_TYPES)}"
        )
    return cls.from_dict(data)


def load_spec(path: "str | Path") -> ScenarioSpec:
    """Load a scenario spec from a JSON file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SpecError(f"invalid spec JSON in {path}: {error}") from error
    return spec_from_dict(data)


def save_spec(spec: ScenarioSpec, path: "str | Path") -> None:
    """Write a scenario spec to a JSON file."""
    spec.save(path)
