"""Job specifications and arrival traces for the multi-job cluster simulator.

A :class:`JobSpec` describes one training job: which workload it trains,
when it arrives, how many iterations it runs, which collective scheduler it
uses (Baseline vs Themis — chosen *per job*, the shared network honors it
per request), which slice of the platform's dimensions its communicators
span, and its scheduling priority relative to other tenants.

Traces are plain ``list[JobSpec]``: build them explicitly, draw Poisson
arrivals with :func:`poisson_trace` (seeded, fully deterministic), or
generate *open-loop* arrival streams with :func:`open_loop_trace` —
Poisson / bursty (MMPP on-off) / diurnal (sinusoidally modulated rate)
processes over a heavy-tailed elephant/mouse :class:`JobMix`, with
bounded-Pareto iteration counts and job sizes.

Determinism contract of the open-loop generator:

* the whole trace is a pure function of its arguments (seeded RNG only —
  replint rule RPL002);
* substreams are derived with :func:`stream_seed` (SHA-256, *not* Python's
  salted ``hash()``), so the same seed yields the same trace on every
  Python version and process;
* arrivals, job sizes, and rate modulation draw from **disjoint** streams:
  changing the size mix never reshuffles the arrival times, and changing
  the arrival process never reshuffles the per-index size draws.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from collections.abc import Iterable, Sequence

from ..core.scheduler import SCHEDULER_KINDS as JOB_SCHEDULERS
from ..errors import ConfigError, did_you_mean
from ..numeric import is_count
from ..sim.faults import stream_seed
from ..workloads import get_workload
from ..workloads.base import Workload
from ..workloads.synthetic import flood_ladder


@dataclass(frozen=True)
class JobSpec:
    """One training job in a cluster trace.

    Attributes
    ----------
    name:
        Unique job identifier; stamped as ``owner`` on every collective the
        job submits (per-job comm-active accounting).
    workload:
        A :class:`Workload` instance or a registry name (``"resnet-152"``,
        ``"dlrm"``, ...) resolved lazily via :func:`get_workload`.
    arrival_time:
        Absolute simulation time (seconds) at which the job starts.
    scheduler:
        Collective scheduler for this job's traffic: ``"baseline"`` or
        ``"themis"``.
    iterations:
        Training iterations the job runs before completing.
    dim_indices:
        Platform dimensions the job's communicators span (its slice of the
        cluster); ``None`` means all dimensions.
    priority:
        Added to every request's priority — higher-priority jobs win ties
        in the intra-dimension policies (NCCL-priority-stream style), and
        the cluster preemption fairness policy lets strictly higher-priority
        jobs pause lower-priority in-flight batches.
    weight:
        Bandwidth share under the weighted / finish-time-fair cluster
        fairness policies: when tenants contend on a dimension, each gets
        ``weight / sum(active weights)`` of its bandwidth.  Ignored by the
        default first-come sharing.
    """

    name: str
    workload: Workload | str
    arrival_time: float = 0.0
    scheduler: str = "themis"
    iterations: int = 1
    dim_indices: tuple[int, ...] | None = None
    priority: int = 0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("job name must be non-empty")
        if not 0 <= self.arrival_time < math.inf:
            raise ConfigError(
                f"job {self.name!r}: arrival time must be >= 0 and finite, "
                f"got {self.arrival_time}"
            )
        if not is_count(self.iterations):
            raise ConfigError(
                f"job {self.name!r}: iterations must be an integer >= 1, "
                f"got {self.iterations!r}"
            )
        if self.scheduler.lower() not in JOB_SCHEDULERS:
            raise ConfigError(
                f"job {self.name!r}: unknown scheduler {self.scheduler!r}; "
                f"known: {', '.join(JOB_SCHEDULERS)}"
            )
        if not 0 < self.weight < math.inf:
            raise ConfigError(
                f"job {self.name!r}: weight must be positive and finite, "
                f"got {self.weight}"
            )
        if self.dim_indices is not None:
            object.__setattr__(self, "dim_indices", tuple(self.dim_indices))

    def resolve_workload(self) -> Workload:
        """The job's :class:`Workload` (resolving registry names)."""
        if isinstance(self.workload, Workload):
            return self.workload
        return get_workload(self.workload)

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, Workload):
            return self.workload.name
        return self.workload

    @property
    def scheduler_label(self) -> str:
        """Display label (``Baseline`` / ``Themis``)."""
        return "Themis" if self.scheduler.lower() == "themis" else "Baseline"

    def at_arrival(self, arrival_time: float) -> "JobSpec":
        """Copy of this spec arriving at ``arrival_time``."""
        return replace(self, arrival_time=arrival_time)


def check_unique_names(names: Iterable[str]) -> None:
    """Job names key every per-job table (placements, tenant weights,
    comm-active accounting), so a trace may not repeat one."""
    duplicates = sorted(
        name for name, count in Counter(names).items() if count > 1
    )
    if duplicates:
        raise ConfigError(f"duplicate job names: {', '.join(duplicates)}")


def poisson_trace(
    workloads: Sequence[Workload | str],
    mean_interarrival: float,
    *,
    seed: int = 0,
    schedulers: Sequence[str] = ("themis",),
    iterations: int = 1,
    start_time: float = 0.0,
    name_prefix: str = "job",
) -> list[JobSpec]:
    """Draw a Poisson job-arrival trace (deterministic for a given seed).

    One job per entry of ``workloads``; the first arrives at ``start_time``
    and subsequent inter-arrival gaps are exponential with mean
    ``mean_interarrival`` seconds.  ``schedulers`` is cycled across jobs, so
    ``("baseline",)`` gives an all-Baseline cluster, ``("themis",)`` an
    all-Themis one, and ``("baseline", "themis")`` alternates.
    """
    if not 0 < mean_interarrival < math.inf:
        raise ConfigError(
            f"mean interarrival must be positive and finite, "
            f"got {mean_interarrival}"
        )
    if not workloads:
        raise ConfigError("a trace needs at least one workload")
    if not schedulers:
        raise ConfigError("a trace needs at least one scheduler")
    rng = random.Random(seed)
    specs: list[JobSpec] = []
    arrival = start_time
    for index, workload in enumerate(workloads):
        wname = workload.name if isinstance(workload, Workload) else workload
        specs.append(
            JobSpec(
                name=f"{name_prefix}{index}-{wname}",
                workload=workload,
                arrival_time=arrival,
                scheduler=schedulers[index % len(schedulers)],
                iterations=iterations,
            )
        )
        arrival += rng.expovariate(1.0 / mean_interarrival)
    return specs


# --- open-loop generation ----------------------------------------------------
#: Arrival processes :func:`open_loop_trace` understands.
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class BoundedPareto:
    """Bounded Pareto distribution on ``[lower, upper]`` with shape ``alpha``.

    The scheduling literature's standard heavy-tail model (elephant/mouse
    job populations): most mass near ``lower``, a polynomial tail up to the
    hard cap ``upper``.  Sampling is inverse-CDF, so one uniform draw per
    sample — exactly one RNG consumption, which the disjoint-stream
    determinism of :func:`open_loop_trace` relies on.
    """

    alpha: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ConfigError(
                f"bounded Pareto alpha must be > 0 and finite, got {self.alpha}"
            )
        if not 0 < self.lower <= self.upper < math.inf:
            raise ConfigError(
                f"bounded Pareto needs 0 < lower <= upper < inf, "
                f"got [{self.lower}, {self.upper}]"
            )

    def cdf(self, x: float) -> float:
        """Analytic CDF (the KS-test reference)."""
        if x <= self.lower:
            return 0.0
        if x >= self.upper:
            return 1.0
        la, ua = self.lower**self.alpha, self.upper**self.alpha
        denom = 1.0 - la / ua
        if denom == 0.0:  # upper within rounding error of lower: point mass
            return 1.0
        return (1.0 - la * x**-self.alpha) / denom

    @property
    def mean(self) -> float:
        """Analytic expectation (drives target-rho rate calibration)."""
        if self.lower == self.upper:
            return self.lower
        a, lo, hi = self.alpha, self.lower, self.upper
        ratio = (lo / hi) ** a
        if ratio == 1.0:  # upper within rounding error of lower: point mass
            return lo
        if math.isclose(a, 1.0):
            value = math.log(hi / lo) * lo / (1.0 - lo / hi)
        else:
            norm = lo**a / (1.0 - ratio)
            value = norm * a / (a - 1.0) * (lo ** (1.0 - a) - hi ** (1.0 - a))
        # The analytic mean lies in [lower, upper]; for upper within a few
        # ulps of lower, catastrophic cancellation can land a step outside.
        return min(max(value, lo), hi)

    def sample(self, rng: random.Random) -> float:
        """One inverse-CDF draw (consumes exactly one uniform)."""
        if self.lower == self.upper:
            rng.random()  # keep stream alignment uniform across configs
            return self.lower
        u = rng.random()
        a, lo, hi = self.alpha, self.lower, self.upper
        ratio = (lo / hi) ** a
        value = (lo**a / (1.0 - u * (1.0 - ratio))) ** (1.0 / a)
        return min(max(value, lo), hi)


@dataclass(frozen=True)
class JobMix:
    """Heavy-tailed elephant/mouse job population for open-loop traces.

    A drawn job is an *elephant* with probability ``elephant_fraction``
    (many layers, large tensors) and a *mouse* otherwise; its iteration
    count is bounded-Pareto on ``[min_iterations, max_iterations]`` with
    shape ``iteration_alpha``; optionally (``size_alpha`` set) its per-layer
    parameter size is additionally scaled by a bounded-Pareto factor on
    ``[1, size_max_scale]``, quantized onto ``size_levels`` geometric rungs
    so the population uses a finite workload pool (isolated-JCT baselines
    stay cacheable).
    """

    elephant_fraction: float = 0.1
    elephant_layers: int = 8
    elephant_param_mb: float = 8.0
    mouse_layers: int = 2
    mouse_param_mb: float = 1.0
    iteration_alpha: float = 1.5
    min_iterations: int = 1
    max_iterations: int = 20
    size_alpha: float | None = None
    size_max_scale: float = 4.0
    size_levels: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.elephant_fraction <= 1.0:
            raise ConfigError(
                f"elephant_fraction must be in [0, 1], got {self.elephant_fraction}"
            )
        for label, layers in (
            ("elephant_layers", self.elephant_layers),
            ("mouse_layers", self.mouse_layers),
        ):
            if not 1 <= layers < math.inf:
                raise ConfigError(f"{label} must be >= 1 and finite, got {layers}")
        for label, mb in (
            ("elephant_param_mb", self.elephant_param_mb),
            ("mouse_param_mb", self.mouse_param_mb),
        ):
            if not 0 < mb < math.inf:
                raise ConfigError(f"{label} must be positive and finite, got {mb}")
        if not 1 <= self.min_iterations <= self.max_iterations < math.inf:
            raise ConfigError(
                f"need 1 <= min_iterations <= max_iterations < inf, got "
                f"[{self.min_iterations}, {self.max_iterations}]"
            )
        if not 0 < self.iteration_alpha < math.inf:
            raise ConfigError(
                f"iteration_alpha must be > 0 and finite, got {self.iteration_alpha}"
            )
        if self.size_alpha is not None and not 0 < self.size_alpha < math.inf:
            raise ConfigError(
                f"size_alpha must be > 0 and finite, got {self.size_alpha}"
            )
        if not 1.0 <= self.size_max_scale < math.inf:
            raise ConfigError(
                f"size_max_scale must be >= 1 and finite, got {self.size_max_scale}"
            )
        if not 1 <= self.size_levels < math.inf:
            raise ConfigError(
                f"size_levels must be >= 1 and finite, got {self.size_levels}"
            )

    # --- distributions ------------------------------------------------------
    def iteration_dist(self) -> BoundedPareto:
        return BoundedPareto(
            self.iteration_alpha,
            float(self.min_iterations),
            float(self.max_iterations),
        )

    def size_dist(self) -> BoundedPareto | None:
        if self.size_alpha is None:
            return None
        return BoundedPareto(self.size_alpha, 1.0, self.size_max_scale)

    def size_scales(self) -> tuple[float, ...]:
        """The geometric size-rung scale factors (``(1.0,)`` without a tail)."""
        if self.size_alpha is None or self.size_levels == 1:
            return (1.0,)
        span = math.log(self.size_max_scale)
        return tuple(
            math.exp(span * level / (self.size_levels - 1))
            for level in range(self.size_levels)
        )

    def level_of(self, scale: float) -> int:
        """Nearest size rung (in log space) for a continuous scale draw."""
        scales = self.size_scales()
        if len(scales) == 1:
            return 0
        target = math.log(max(scale, scales[0]))
        return min(
            range(len(scales)),
            key=lambda i: (abs(math.log(scales[i]) - target), i),
        )

    def level_probabilities(self) -> tuple[float, ...]:
        """Probability mass each size rung receives under quantization.

        Rung boundaries sit at the geometric midpoints between adjacent
        scales; masses come from the analytic bounded-Pareto CDF, so the
        target-rho calibration can weight each rung exactly as the sampler
        populates it.
        """
        dist = self.size_dist()
        scales = self.size_scales()
        if dist is None or len(scales) == 1:
            return (1.0,)
        bounds = [
            math.sqrt(scales[i] * scales[i + 1]) for i in range(len(scales) - 1)
        ]
        edges = [0.0, *[dist.cdf(b) for b in bounds], 1.0]
        return tuple(edges[i + 1] - edges[i] for i in range(len(scales)))

    def workload_pool(self) -> dict[tuple[str, int], Workload]:
        """``(class label, size rung) -> Workload`` for every drawable shape."""
        scales = self.size_scales()
        pool: dict[tuple[str, int], Workload] = {}
        for label, layers, param_mb in (
            ("eleph", self.elephant_layers, self.elephant_param_mb),
            ("mouse", self.mouse_layers, self.mouse_param_mb),
        ):
            for rung, workload in enumerate(
                flood_ladder(layers, param_mb, scales, name_prefix=f"flood-{label}")
            ):
                pool[(label, rung)] = workload
        return pool

    def class_probabilities(self) -> dict[str, float]:
        return {
            "eleph": self.elephant_fraction,
            "mouse": 1.0 - self.elephant_fraction,
        }

    @property
    def mean_iterations(self) -> float:
        """Expectation of the (continuous) iteration distribution.

        The sampler rounds draws to whole iterations, so this is a close
        approximation used only for rate calibration, not an exact moment
        of the discrete sampler.
        """
        return self.iteration_dist().mean

    def sample_job(self, rng: random.Random) -> tuple[str, int, int]:
        """Draw ``(class label, size rung, iterations)``.

        Consumes exactly three uniforms from ``rng`` regardless of the mix
        configuration, so traces with different mixes stay stream-aligned
        (disjoint-stream determinism).
        """
        label = "eleph" if rng.random() < self.elephant_fraction else "mouse"
        size_dist = self.size_dist()
        if size_dist is None:
            rng.random()  # keep stream alignment with sized mixes
            rung = 0
        else:
            rung = self.level_of(size_dist.sample(rng))
        raw = self.iteration_dist().sample(rng)
        iterations = max(self.min_iterations, min(self.max_iterations, round(raw)))
        return label, rung, iterations


# --- arrival processes -------------------------------------------------------
def _next_poisson(rng: random.Random, rate: float) -> float:
    return rng.expovariate(rate)


def _diurnal_arrivals(
    arr_rng: random.Random,
    mod_rng: random.Random,
    rate: float,
    amplitude: float,
    period: float,
    start_time: float,
    horizon: float | None,
    max_jobs: int | None,
) -> list[float]:
    """Non-homogeneous Poisson via thinning against the peak rate."""
    peak = rate * (1.0 + amplitude)
    times: list[float] = []
    t = start_time
    while True:
        t += _next_poisson(arr_rng, peak)
        if horizon is not None and t > start_time + horizon:
            break
        lam = rate * (
            1.0 + amplitude * math.sin(2.0 * math.pi * (t - start_time) / period)
        )
        if mod_rng.random() * peak < lam:
            times.append(t)
            if max_jobs is not None and len(times) >= max_jobs:
                break
    return times


def _bursty_arrivals(
    arr_rng: random.Random,
    mod_rng: random.Random,
    rate: float,
    on_mean: float,
    off_mean: float,
    ratio: float,
    start_time: float,
    horizon: float | None,
    max_jobs: int | None,
) -> list[float]:
    """Two-state MMPP: exponential on/off dwell times, long-run mean ``rate``.

    The on-state rate is ``ratio`` times the off-state rate, scaled so the
    duty-weighted average equals ``rate``.  Exponential gaps are memoryless,
    so redrawing a fresh gap at each state switch is an exact simulation.
    """
    duty = on_mean / (on_mean + off_mean)
    rate_off = rate / (duty * ratio + (1.0 - duty))
    rate_on = ratio * rate_off
    times: list[float] = []
    t = start_time
    state_on = True
    next_switch = t + mod_rng.expovariate(1.0 / on_mean)
    while True:
        gap = _next_poisson(arr_rng, rate_on if state_on else rate_off)
        while t + gap > next_switch:
            t = next_switch
            state_on = not state_on
            mean = on_mean if state_on else off_mean
            next_switch = t + mod_rng.expovariate(1.0 / mean)
            gap = _next_poisson(arr_rng, rate_on if state_on else rate_off)
        t += gap
        if horizon is not None and t > start_time + horizon:
            break
        times.append(t)
        if max_jobs is not None and len(times) >= max_jobs:
            break
    return times


def _poisson_arrivals(
    arr_rng: random.Random,
    rate: float,
    start_time: float,
    horizon: float | None,
    max_jobs: int | None,
) -> list[float]:
    times: list[float] = []
    t = start_time
    while True:
        t += _next_poisson(arr_rng, rate)
        if horizon is not None and t > start_time + horizon:
            break
        times.append(t)
        if max_jobs is not None and len(times) >= max_jobs:
            break
    return times


def check_open_loop_args(
    *,
    rate: float | None,
    duration: float | None,
    max_jobs: int | None,
    process: str,
    schedulers: Sequence[str],
    start_time: float,
    rate_amplitude: float,
    rate_period: float,
    burst_on: float,
    burst_off: float,
    burst_ratio: float,
) -> None:
    """Check :func:`open_loop_trace`'s arguments without drawing a trace.

    Every knob is checked whatever the ``process``, so a bad burst knob on
    a Poisson trace is an error, not silently unused.  ``rate=None``
    skips the rate (a target-rho trace has it calibrated at run time).
    """
    if rate is not None and not 0 < rate < math.inf:
        raise ConfigError(
            f"open-loop arrival rate must be positive and finite, got {rate}"
        )
    if duration is None and max_jobs is None:
        raise ConfigError("an open-loop trace needs 'duration' and/or 'max_jobs'")
    if duration is not None and not 0 < duration < math.inf:
        raise ConfigError(f"duration must be positive and finite, got {duration}")
    if max_jobs is not None and not 1 <= max_jobs < math.inf:
        raise ConfigError(f"max_jobs must be >= 1 and finite, got {max_jobs}")
    if not 0 <= start_time < math.inf:
        raise ConfigError(f"start_time must be >= 0 and finite, got {start_time}")
    if not schedulers:
        raise ConfigError("a trace needs at least one scheduler")
    if process not in ARRIVAL_PROCESSES:
        raise ConfigError(
            f"unknown arrival process {process!r}"
            f"{did_you_mean(process, ARRIVAL_PROCESSES)}; "
            f"known: {', '.join(ARRIVAL_PROCESSES)}"
        )
    if not 0.0 <= rate_amplitude <= 1.0:
        raise ConfigError(
            f"rate_amplitude must be in [0, 1], got {rate_amplitude}"
        )
    for label, value in (
        ("rate_period", rate_period),
        ("burst_on", burst_on),
        ("burst_off", burst_off),
    ):
        if not 0 < value < math.inf:
            raise ConfigError(f"{label} must be positive and finite, got {value}")
    if not 1.0 <= burst_ratio < math.inf:
        raise ConfigError(
            f"burst_ratio must be >= 1 and finite, got {burst_ratio}"
        )


def open_loop_trace(
    *,
    rate: float,
    duration: float | None = None,
    max_jobs: int | None = None,
    mix: JobMix | None = None,
    process: str = "poisson",
    seed: int = 0,
    schedulers: Sequence[str] = ("themis",),
    start_time: float = 0.0,
    rate_amplitude: float = 0.5,
    rate_period: float = 0.25,
    burst_on: float = 0.05,
    burst_off: float = 0.05,
    burst_ratio: float = 4.0,
    name_prefix: str = "oj",
) -> list[JobSpec]:
    """Generate a seeded open-loop arrival trace over a :class:`JobMix`.

    Parameters
    ----------
    rate:
        Long-run mean arrival rate (jobs per simulated second).
    duration / max_jobs:
        Stop conditions — simulated horizon after ``start_time`` and/or a
        hard arrival-count cap; at least one must be set.
    process:
        ``"poisson"`` (homogeneous), ``"bursty"`` (two-state MMPP with
        exponential dwell times ``burst_on``/``burst_off`` and on:off rate
        ratio ``burst_ratio``), or ``"diurnal"`` (sinusoidal rate with
        relative ``rate_amplitude`` and period ``rate_period`` seconds,
        simulated by thinning).
    seed:
        Master seed; arrivals, per-job sizes, and rate modulation each use
        an independent SHA-256-derived substream (see :func:`stream_seed`).
    schedulers:
        Cycled across jobs in arrival order, as in :func:`poisson_trace`.

    The arguments are checked by :func:`check_open_loop_args` first.
    """
    process = process.strip().lower()
    check_open_loop_args(
        rate=rate,
        duration=duration,
        max_jobs=max_jobs,
        process=process,
        schedulers=schedulers,
        start_time=start_time,
        rate_amplitude=rate_amplitude,
        rate_period=rate_period,
        burst_on=burst_on,
        burst_off=burst_off,
        burst_ratio=burst_ratio,
    )
    mix = mix or JobMix()
    arr_rng = random.Random(stream_seed(seed, "arrivals"))
    mod_rng = random.Random(stream_seed(seed, "modulation"))
    size_rng = random.Random(stream_seed(seed, "sizes"))
    if process == "poisson":
        times = _poisson_arrivals(arr_rng, rate, start_time, duration, max_jobs)
    elif process == "diurnal":
        times = _diurnal_arrivals(
            arr_rng, mod_rng, rate, rate_amplitude, rate_period,
            start_time, duration, max_jobs,
        )
    else:
        times = _bursty_arrivals(
            arr_rng, mod_rng, rate, burst_on, burst_off, burst_ratio,
            start_time, duration, max_jobs,
        )
    pool = mix.workload_pool()
    specs: list[JobSpec] = []
    for index, arrival in enumerate(times):
        label, rung, iterations = mix.sample_job(size_rng)
        specs.append(
            JobSpec(
                name=f"{name_prefix}{index}-{label}",
                workload=pool[(label, rung)],
                arrival_time=arrival,
                scheduler=schedulers[index % len(schedulers)],
                iterations=iterations,
            )
        )
    return specs


def derive_open_loop_rate(
    target_rho: float, mean_service_time: float, slots: int
) -> float:
    """Arrival rate hitting offered load ``target_rho`` on ``slots`` servers.

    Offered load is ``lambda * E[service] / slots``; solve for lambda.
    """
    if not 0 < target_rho < 1:
        raise ConfigError(f"target_rho must be in (0, 1), got {target_rho}")
    if not 0 < mean_service_time < math.inf:
        raise ConfigError(
            f"mean service time must be positive and finite, "
            f"got {mean_service_time}"
        )
    if not 1 <= slots < math.inf:
        raise ConfigError(f"slots must be >= 1, got {slots}")
    return target_rho * slots / mean_service_time
