"""Fault layer: link degradation schedules and job failure policies.

Networks misbehave.  Links degrade when a cable renegotiates to a lower
rate, flap when an optic is marginal, and fail outright; training jobs
crash and need retries.  Themis's headline claim — bandwidth-*aware*
chunk scheduling adapts to observed per-dimension bandwidth — is only
interesting if the observed bandwidth can change under it, so this
module defines the deterministic fault model the simulators inject:

* :class:`LinkFault` — one timed capacity event on one topology
  dimension (``capacity *= factor`` at ``start``, restored at
  ``start + duration``; ``factor=0`` is a full failure, ``duration=None``
  is persistent).
* :class:`FaultSchedule` — an immutable collection of link faults plus
  seeded generators for transient *flaps* and persistent *straggler*
  dimensions.  Generation draws from disjoint SHA-256 substreams (the
  same idiom as the cluster trace generators), so every dimension's
  fault pattern is a pure function of ``(seed, dim)`` — independent of
  which other dimensions are faulted and of iteration order.
* :class:`JobFaultPolicy` — job-level crash hazard with bounded retries,
  exponential backoff + jitter, and optional checkpoint-interval restart
  semantics (progress rolls back to the last checkpoint).
* :class:`ScaledLatencyModel` — the planner's view of a degraded
  network: per-dimension chunk loads divided by the live capacity
  factor, so a bandwidth-aware scheduler *sees* the slow dimension and
  routes around it while the baseline stays oblivious.

Capacities are multiplicative: overlapping faults on one dimension
compose as the product of their factors, and restoring one fault
recomputes the product of the survivors (never divides out, so a
restore after a full failure cannot resurrect precision noise).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from ..collectives.types import PhaseOp
from ..core.latency_model import LatencyModel
from ..errors import ConfigError
from ..numeric import is_count

__all__ = [
    "MIN_CAPACITY_FACTOR",
    "LinkFault",
    "FaultSchedule",
    "JobFaultPolicy",
    "ScaledLatencyModel",
    "compose_factors",
    "fault_substream",
    "stream_seed",
]

#: Capacity factors below this clamp to a full failure: an event horizon
#: short of float underflow, so a "degraded" link can never schedule a
#: completion at an astronomically-far (or infinite) time.
MIN_CAPACITY_FACTOR = 1e-9


def stream_seed(seed: int, label: str) -> int:
    """Derive an independent substream seed from ``(seed, label)``.

    SHA-256 over ``"{seed}:{label}"``, truncated to 64 bits — stable across
    Python versions and processes (unlike the salted builtin ``hash``), so
    substreams for different labels are independent and adding a new label
    never perturbs the draws of an existing one.  The fault generators and
    the cluster trace generators both draw from it.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def fault_substream(seed: int, label: str) -> random.Random:
    """A seeded RNG on the disjoint substream ``stream_seed(seed, label)``."""
    return random.Random(stream_seed(seed, label))


def _check_dims(dims: "tuple[int, ...] | list[int]") -> None:
    for dim in dims:
        if not 0 <= dim < math.inf:
            raise ConfigError(f"fault dim_index must be >= 0, got {dim}")


def _check_factor(factor: float) -> None:
    if not 0.0 <= factor <= 1.0:
        raise ConfigError(
            "fault factor must be in [0, 1] (a degraded link cannot "
            f"exceed nominal capacity), got {factor}"
        )


@dataclass(frozen=True)
class LinkFault:
    """One capacity event: dimension ``dim_index`` runs at ``factor`` from
    ``start`` until ``start + duration`` (forever when ``duration`` is
    ``None``).  ``factor=0.0`` is a full link failure."""

    dim_index: int
    start: float
    factor: float
    duration: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        _check_dims((self.dim_index,))
        if not 0.0 <= self.start < math.inf:
            raise ConfigError(
                f"fault start must be >= 0 and finite, got {self.start}"
            )
        _check_factor(self.factor)
        if self.duration is not None and not 0.0 < self.duration < math.inf:
            raise ConfigError(
                f"fault duration must be positive and finite (or None), got "
                f"{self.duration}"
            )
        if self.factor < MIN_CAPACITY_FACTOR and self.factor != 0.0:
            # Near-zero capacity behaves as a failure; make that explicit
            # at construction instead of surprising the channel layer.
            object.__setattr__(self, "factor", 0.0)

    @property
    def end(self) -> float | None:
        """Restore time, or ``None`` for a persistent fault."""
        if self.duration is None:
            return None
        return self.start + self.duration


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, deterministic set of :class:`LinkFault` events.

    Build explicitly from events, generate with :meth:`flaps` /
    :meth:`stragglers`, and compose with ``+``.  The schedule is pure
    data: applying it is the network simulator's job
    (:meth:`repro.sim.network.NetworkSimulator.apply_fault_schedule`).
    """

    events: tuple[LinkFault, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(
            e if isinstance(e, LinkFault) else LinkFault(**e)
            for e in self.events
        )
        object.__setattr__(self, "events", events)

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(self.events + other.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def restricted_to(self, ndims: int) -> "FaultSchedule":
        """Validate every event's dimension against an ``ndims`` platform."""
        for event in self.events:
            if event.dim_index >= ndims:
                raise ConfigError(
                    f"fault targets dimension {event.dim_index} but the "
                    f"topology has {ndims} dimension(s)"
                )
        return self

    def active_factor(self, dim_index: int, time: float) -> float:
        """Product of the factors of all faults live on ``dim_index`` at
        ``time`` (1.0 when none) — the capacity the channel would carry."""
        factor = 1.0
        for event in self.events:
            if event.dim_index != dim_index:
                continue
            end = event.end
            if event.start <= time and (end is None or time < end):
                factor *= event.factor
        return factor

    @classmethod
    def flaps(
        cls,
        dims: tuple[int, ...] | list[int],
        *,
        seed: int,
        count: int = 2,
        factor: float = 0.5,
        mean_interval: float = 0.01,
        mean_duration: float = 0.005,
        start: float = 0.0,
    ) -> "FaultSchedule":
        """Transient flaps: each dimension in ``dims`` drops to ``factor``
        ``count`` times, with exponentially distributed gaps
        (``mean_interval``) and hold times (``mean_duration``).

        Each dimension draws from its own substream (label
        ``flap:dim{d}``), so the flap pattern on one dimension is
        unaffected by which other dimensions flap.
        """
        _check_dims(dims)
        _check_factor(factor)
        if not 0 <= count < math.inf:
            raise ConfigError(f"flap count must be >= 0, got {count}")
        if not (0 < mean_interval < math.inf and 0 < mean_duration < math.inf):
            raise ConfigError(
                "flap mean_interval and mean_duration must be positive and "
                f"finite, got {mean_interval} / {mean_duration}"
            )
        events: list[LinkFault] = []
        for dim in dims:
            rng = fault_substream(seed, f"flap:dim{dim}")
            at = start
            for flap in range(count):
                at += rng.expovariate(1.0 / mean_interval)
                duration = rng.expovariate(1.0 / mean_duration)
                events.append(
                    LinkFault(
                        dim_index=dim,
                        start=at,
                        factor=factor,
                        duration=duration,
                        label=f"flap{flap}:dim{dim}",
                    )
                )
                at += duration
        return cls(tuple(events))

    @classmethod
    def stragglers(
        cls,
        dims: tuple[int, ...] | list[int],
        *,
        seed: int,
        factor: float = 0.5,
        probability: float = 1.0,
        start: float = 0.0,
    ) -> "FaultSchedule":
        """Persistent stragglers: each dimension in ``dims`` independently
        becomes (with ``probability``, substream ``straggler:dim{d}``) a
        permanently degraded link at ``factor`` from ``start`` on."""
        _check_dims(dims)
        _check_factor(factor)
        if not 0.0 <= probability <= 1.0:
            raise ConfigError(
                f"straggler probability must be in [0, 1], got {probability}"
            )
        events: list[LinkFault] = []
        for dim in dims:
            rng = fault_substream(seed, f"straggler:dim{dim}")
            if rng.random() < probability:
                events.append(
                    LinkFault(
                        dim_index=dim,
                        start=start,
                        factor=factor,
                        duration=None,
                        label=f"straggler:dim{dim}",
                    )
                )
        return cls(tuple(events))


@dataclass(frozen=True)
class JobFaultPolicy:
    """Job-level crash/retry semantics for the cluster simulator.

    While a job runs, crashes arrive as a Poisson process with hazard
    ``crash_rate`` (per simulated second, per-job substream
    ``crash:{name}`` off ``seed``).  A crash aborts the attempt: progress
    rolls back to the last checkpoint (every ``checkpoint_iterations``
    iterations; to zero without checkpoints), the wasted time since that
    checkpoint is charged as lost work, and the job retries after
    ``backoff_base * backoff_factor**(k-1)`` seconds (k-th retry) plus a
    uniform jitter fraction and ``restart_overhead``.  After
    ``max_retries`` retries the next crash is terminal: the job is marked
    failed and releases its slot.
    """

    crash_rate: float
    max_retries: int = 3
    backoff_base: float = 1e-3
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    checkpoint_iterations: int | None = None
    restart_overhead: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.crash_rate < math.inf:
            raise ConfigError(
                f"crash_rate must be positive and finite, got {self.crash_rate}"
            )
        if not 0 <= self.max_retries < math.inf:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0.0 < self.backoff_base < math.inf:
            raise ConfigError(
                f"backoff_base must be positive and finite, "
                f"got {self.backoff_base}"
            )
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ConfigError(
                f"backoff_factor must be >= 1 and finite, "
                f"got {self.backoff_factor}"
            )
        if not 0.0 <= self.backoff_jitter < math.inf:
            raise ConfigError(
                f"backoff_jitter must be >= 0 and finite, "
                f"got {self.backoff_jitter}"
            )
        if self.checkpoint_iterations is not None and not is_count(
            self.checkpoint_iterations
        ):
            raise ConfigError(
                "checkpoint_iterations must be an integer >= 1 (or None), got "
                f"{self.checkpoint_iterations!r}"
            )
        if not 0.0 <= self.restart_overhead < math.inf:
            raise ConfigError(
                f"restart_overhead must be >= 0 and finite, "
                f"got {self.restart_overhead}"
            )

    def retry_delay(self, retry_number: int, rng: random.Random) -> float:
        """Backoff before the ``retry_number``-th retry (1-based)."""
        delay = self.backoff_base * self.backoff_factor ** (retry_number - 1)
        delay *= 1.0 + self.backoff_jitter * rng.random()
        return delay + self.restart_overhead


class ScaledLatencyModel(LatencyModel):
    """A latency model whose per-dimension bandwidth terms reflect live
    capacity factors: ``chunk_load`` is divided by the factor, so a
    half-capacity dimension looks twice as expensive to the planner.

    Fixed (hop/step) latencies are unchanged — degradation models a slow
    wire, not a longer path.  Zero factors clamp to
    :data:`MIN_CAPACITY_FACTOR` so the planner sees "avoid at almost any
    cost" rather than an infinity that would poison schedule arithmetic.
    """

    def __init__(self, base: LatencyModel, factors: tuple[float, ...]) -> None:
        super().__init__(base.topology, base.algorithms)
        if len(factors) != base.topology.ndims:
            raise ConfigError(
                f"need {base.topology.ndims} capacity factors, got "
                f"{len(factors)}"
            )
        for factor in factors:
            if factor < 0.0:
                raise ConfigError(
                    f"capacity factor must be >= 0, got {factor}"
                )
        self.factors = factors

    def chunk_load(
        self, op: PhaseOp, stage_size: float, dim_index: int
    ) -> float:
        nominal = super().chunk_load(op, stage_size, dim_index)
        return nominal / max(self.factors[dim_index], MIN_CAPACITY_FACTOR)


def compose_factors(factors: "dict[int, float]") -> float:
    """Product of active fault factors (1.0 when none), clamped so that
    near-zero products become exact failures."""
    product = 1.0
    for value in factors.values():
        product *= value
    if product < MIN_CAPACITY_FACTOR:
        return 0.0
    return product
