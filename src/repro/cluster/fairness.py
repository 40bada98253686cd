"""Cluster-level fairness policies for the multi-job simulator.

PR 1's :class:`ClusterSimulator` lets several training jobs contend for one
shared network, but contending chunk batches are served first-come: a large
tenant with many in-flight chunks can starve small ones.  This module adds
the cluster-scheduling layer on top — the objectives of Themis-fair GPU
scheduling (Mahajan et al.) and CASSINI applied to the collective-level
network model of the (ISCA'22) Themis paper this repo reproduces:

* :class:`FifoSharing` — the PR 1 status quo, named so it can be compared;
* :class:`WeightedSharing` — static weighted per-tenant bandwidth shares:
  concurrent batches from different jobs split each dimension's bandwidth
  in proportion to ``JobSpec.weight`` (GPS-style fluid sharing);
* :class:`FinishTimeFairness` — tracks each job's finish-time-fairness
  metric rho = (projected) shared JCT / isolated JCT online and
  periodically re-weights tenants toward equal rho: jobs that contention
  hurt most get a larger bandwidth share;
* :class:`PriorityPreemption` — a strictly higher-priority job's arriving
  chunk work pauses a lower-priority in-flight batch on a saturated
  dimension; the paused batch's leftover transfer re-runs later
  (work-conserving).

A policy is a small strategy object: :meth:`FairnessPolicy.prepare` is
called once, at simulation time zero, with the :class:`ClusterSimulator`
about to run; it configures the shared network (tenant weights, preemption)
and may schedule its own recurring events on the simulator's engine (the
finish-time-fair re-weighting tick).  Select one via
``ClusterConfig(fairness="ftf")`` or pass a configured instance.

See ``docs/fairness.md`` for definitions, knobs, and a worked example.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING

from ..errors import ConfigError
from ..registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .simulator import ClusterSimulator


class FairnessPolicy(abc.ABC):
    """Configures how contending tenants share the cluster network."""

    #: Registry key (``ClusterConfig(fairness=<name>)``).
    name: str = "abstract"
    #: Human-readable label for reports.
    label: str = "?"
    #: Whether the policy drives the network's weighted-sharing /
    #: preemption hooks — only the analytical backend has them (the spec
    #: layer rejects such policies on other network backends up front).
    requires_sharing: bool = False

    def prepare(self, cluster: "ClusterSimulator") -> None:
        """Configure ``cluster`` before its jobs start (engine at t=0)."""

    def describe(self) -> str:
        """One-line policy description for report headers."""
        return self.label


class FifoSharing(FairnessPolicy):
    """First-come sharing (the default): no weights, no preemption.

    Contending chunk batches serialize on each dimension's wire in the
    order the intra-dimension policy picks them; a tenant's share of the
    bandwidth is whatever its queue pressure wins.
    """

    name = "fifo"
    label = "FIFO"


class WeightedSharing(FairnessPolicy):
    """Static weighted per-tenant bandwidth shares.

    Each dimension serves one in-flight batch per tenant concurrently, at
    rate ``w_i / sum(active w)`` of the dimension's bandwidth.  Weights come
    from ``JobSpec.weight`` unless overridden here.

    Parameters
    ----------
    weights:
        Optional ``{job name: weight}`` override; jobs absent from the map
        keep their ``JobSpec.weight``.
    """

    name = "weighted"
    label = "Weighted shares"
    requires_sharing = True

    def __init__(
        self,
        weights: dict[str, float] | None = None,
        weights_by_dim: dict[str, dict[int, float]] | None = None,
    ) -> None:
        self.weights = dict(weights or {})
        self.weights_by_dim = {
            owner: dict(dims) for owner, dims in (weights_by_dim or {}).items()
        }
        for table in (self.weights, *self.weights_by_dim.values()):
            for weight in table.values():
                if not 0 < weight < math.inf:
                    raise ConfigError(
                        f"tenant weights must be positive and finite, "
                        f"got {weight}"
                    )

    def prepare(self, cluster: "ClusterSimulator") -> None:
        names = {spec.name for spec in cluster.jobs}
        for label, keys in (
            ("weights", self.weights), ("per-dim weights", self.weights_by_dim)
        ):
            unknown = sorted(set(keys) - names)
            if unknown:
                raise ConfigError(
                    f"{label} name unknown job(s) "
                    f"{', '.join(repr(u) for u in unknown)}; "
                    f"jobs: {', '.join(sorted(names))}"
                )
        mapping: dict[str, float | dict[int, float]] = {
            spec.name: self.weights.get(spec.name, spec.weight)
            for spec in cluster.jobs
        }
        mapping.update(self.weights_by_dim)
        cluster.network.set_tenant_weights(mapping)

    def describe(self) -> str:
        if self.weights_by_dim:
            return f"{self.label} (static, per-dimension)"
        return f"{self.label} (static, from JobSpec.weight)"


class FinishTimeFairness(FairnessPolicy):
    """Finish-time fairness: re-weight tenants online to equalize rho.

    The finish-time-fairness metric of Themis-fair (Mahajan et al.) is
    ``rho = shared JCT / isolated JCT`` — how much slower a job runs in the
    shared cluster than it would alone.  A perfectly fair cluster gives
    every job the same rho.  This policy runs the shared network in
    weighted-sharing mode and, every ``interval`` seconds of simulated
    time, estimates each unfinished job's rho from a safe mid-run snapshot
    of its progress:

        projected JCT = elapsed + isolated * (remaining iterations / total)
        rho           = projected JCT / isolated JCT

    (for a finished job, rho is exact), then sets each active job's weight
    to ``JobSpec.weight * (rho / max rho) ** exponent`` — the job furthest
    behind its fair finish time gets the largest bandwidth share, pulling
    the rho spread back together.

    Parameters
    ----------
    interval:
        Re-weighting period in simulated seconds.  ``None`` (default) picks
        ``min isolated JCT / 25`` so even the shortest job sees many ticks.
    exponent:
        How aggressively lagging jobs are favored (1.0 = proportional to
        rho; larger = more aggressive).
    min_share:
        Floor on the relative weight of the least-lagging active job, so
        nobody is starved outright.
    """

    name = "ftf"
    label = "Finish-time fair"
    requires_sharing = True

    def __init__(
        self,
        interval: float | None = None,
        exponent: float = 2.0,
        min_share: float = 0.05,
    ) -> None:
        if interval is not None and not 0 < interval < math.inf:
            raise ConfigError(
                f"re-weighting interval must be positive and finite, "
                f"got {interval}"
            )
        if not 0 < exponent < math.inf:
            raise ConfigError(
                f"exponent must be positive and finite, got {exponent}"
            )
        if not 0 < min_share <= 1:
            raise ConfigError(
                f"min_share must be in (0, 1], got {min_share}"
            )
        self.interval = interval
        self.exponent = exponent
        self.min_share = min_share
        self._cluster: "ClusterSimulator | None" = None
        self._isolated: dict[str, float] = {}
        self._resolved_interval: float | None = None
        self._last_weights: dict[str, float] | None = None
        #: ``(time, {job name: rho estimate})`` per re-weighting tick.
        self.rho_trace: list[tuple[float, dict[str, float]]] = []
        self.reweight_count = 0

    def prepare(self, cluster: "ClusterSimulator") -> None:
        # Per-run state is reset here so one configured policy instance can
        # be reused across ClusterSimulator runs.
        self._cluster = cluster
        self.rho_trace = []
        self.reweight_count = 0
        self._isolated = {
            spec.name: cluster.isolated_time(spec) for spec in cluster.jobs
        }
        self._resolved_interval = (
            min(self._isolated.values()) / 25.0
            if self.interval is None
            else self.interval
        )
        self._last_weights = {spec.name: spec.weight for spec in cluster.jobs}
        cluster.network.set_tenant_weights(self._last_weights)
        cluster.engine.schedule_after(self._resolved_interval, self._tick)

    def _rho_estimates(self, now: float) -> dict[str, float]:
        """Per-job rho: exact for finished jobs, projected for running ones."""
        estimates: dict[str, float] = {}
        for driver in self._cluster.drivers:
            spec = driver.spec
            isolated = self._isolated[spec.name]
            if driver.finished:
                rho = (driver.finish_time - spec.arrival_time) / isolated
            elif now <= spec.arrival_time:
                rho = 1.0  # not arrived: no contention suffered yet
            else:
                elapsed = now - spec.arrival_time
                done = len(driver.iterations)
                remaining_frac = (spec.iterations - done) / spec.iterations
                rho = (elapsed + isolated * remaining_frac) / isolated
            estimates[spec.name] = rho
        return estimates

    def _tick(self) -> None:
        cluster = self._cluster
        unfinished = [d for d in cluster.drivers if not d.finished]
        if not unfinished:
            return  # last job done: stop ticking so the engine can drain
        now = cluster.engine.now
        estimates = self._rho_estimates(now)
        self.rho_trace.append((now, dict(estimates)))
        active = {
            d.spec.name: estimates[d.spec.name]
            for d in unfinished
            if now >= d.spec.arrival_time
        }
        if active:
            worst = max(active.values())
            weights = {}
            for driver in cluster.drivers:
                spec = driver.spec
                rho = active.get(spec.name)
                if rho is None:
                    weights[spec.name] = spec.weight  # finished/future: moot
                else:
                    share = max((rho / worst) ** self.exponent, self.min_share)
                    weights[spec.name] = spec.weight * share
            # Re-pushing unchanged weights would only re-walk every
            # channel's in-flight flows to find nothing to re-tag: skip it.
            if weights != self._last_weights:
                self._last_weights = weights
                cluster.network.set_tenant_weights(weights)
                self.reweight_count += 1
        if cluster.engine.pending == 0:
            # Nothing but this tick was scheduled: no event can ever advance
            # the unfinished jobs again.  Stop ticking so the engine drains
            # and ClusterSimulator.run() raises its DeadlockError instead of
            # the tick re-arming itself forever.
            return
        cluster.engine.schedule_after(self._resolved_interval, self._tick)

    def describe(self) -> str:
        from ..units import fmt_time

        resolved = (
            self._resolved_interval
            if self._resolved_interval is not None
            else self.interval
        )
        interval = "auto" if resolved is None else fmt_time(resolved)
        return (
            f"{self.label} (interval={interval}, "
            f"exponent={self.exponent}, min_share={self.min_share})"
        )


class PriorityPreemption(FairnessPolicy):
    """Priority preemption of in-flight chunk batches.

    Arms the shared network's preemption discipline: when a job's chunk op
    arrives on a dimension whose wire is held by a strictly lower-priority
    batch, that batch is paused and its leftover transfer re-runs after the
    higher-priority work — work-conserving, nothing lost or re-sent.
    Priorities come from ``JobSpec.priority`` (plus the per-request MP
    boost the training loop already applies).
    """

    name = "preempt"
    label = "Priority preemption"
    requires_sharing = True

    def prepare(self, cluster: "ClusterSimulator") -> None:
        cluster.network.enable_preemption()

    def describe(self) -> str:
        return f"{self.label} (from JobSpec.priority)"


#: Cluster fairness policies by (case-insensitive) name, sorted.  A name
#: becomes valid everywhere policies are selected by key:
#: ``ClusterConfig(fairness=name)``, ``ClusterScenario.fairness`` and the
#: CLI's ``--fairness`` choices.
FAIRNESS: Registry[FairnessPolicy] = Registry(
    "fairness policy",
    {
        "fifo": FifoSharing,
        "ftf": FinishTimeFairness,
        "preempt": PriorityPreemption,
        "weighted": WeightedSharing,
    },
    error=ConfigError,
)
fairness_names = FAIRNESS.names
register_fairness = FAIRNESS.register


def get_fairness(policy: "str | FairnessPolicy | None") -> FairnessPolicy | None:
    """Resolve a fairness policy: name, configured instance, or ``None``.

    ``None`` means the implicit default (first-come sharing) with no policy
    object attached; ``"fifo"`` is the same behavior but named in reports.
    """
    if policy is None or isinstance(policy, FairnessPolicy):
        return policy
    return FAIRNESS.build(policy)
