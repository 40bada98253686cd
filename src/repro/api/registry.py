"""One string-keyed surface over every pluggable component.

Each domain holds one :class:`~repro.registry.Registry` — topology presets,
workloads, intra-dimension policies, cluster fairness and placement
policies, collective algorithms, network backends.  Scenario specs name
*all* of these by key, so this module maps each spec kind straight to its
domain's instance:

* :func:`resolve` — instantiate a component: ``resolve("workload", "dlrm")``;
* :func:`registry_keys` — list the valid keys of one kind;
* :func:`validate_key` — check a key (the kind's case rule applies) and
  raise :class:`SpecError` with a did-you-mean hint;
* :func:`register` — plugin surface: registers a custom component in the
  domain's instance, so both the per-module accessors and every spec/CLI
  key lookup see it.

Kinds: ``topology``, ``workload``, ``collective``, ``scheduler``,
``policy``, ``fairness``, ``placement``, ``algorithm``, ``backend``.  The
``collective`` and ``scheduler`` kinds are fixed.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from ..cluster.fairness import FAIRNESS
from ..cluster.placement import PLACEMENT
from ..collectives.registry import ALGORITHMS
from ..collectives.types import CollectiveType
from ..core.policies import POLICIES
from ..core.scheduler import SCHEDULER_KINDS, SchedulerFactory
from ..errors import CollectiveError, ScheduleError, SpecError, did_you_mean
from ..registry import Registry
from ..sim.backends.base import BACKENDS
from ..topology.presets import PRESETS
from ..workloads import WORKLOADS

#: Collective-type keys (canonical names; specs also accept the short
#: aliases ar/rs/ag/a2a through ``CollectiveType.from_name``).
COLLECTIVE_KEYS: tuple[str, ...] = (
    "allreduce", "reducescatter", "allgather", "alltoall",
)

_KINDS: dict[str, Registry[Any]] = {
    "topology": PRESETS,
    "workload": WORKLOADS,
    "collective": Registry(
        "collective type",
        {key: partial(CollectiveType.from_name, key) for key in COLLECTIVE_KEYS},
        error=CollectiveError,
        frozen=True,
    ),
    "scheduler": Registry(
        "scheduler kind",
        {kind: partial(SchedulerFactory, kind) for kind in SCHEDULER_KINDS},
        error=ScheduleError,
        frozen=True,
    ),
    "policy": POLICIES,
    "fairness": FAIRNESS,
    "placement": PLACEMENT,
    "algorithm": ALGORITHMS,
    "backend": BACKENDS,
}


def registry_kinds() -> tuple[str, ...]:
    """The component kinds the unified registry knows."""
    return tuple(_KINDS)


def _registry(kind: str) -> Registry[Any]:
    registry = _KINDS.get(kind)
    if registry is None:
        hint = did_you_mean(kind, registry_kinds())
        raise SpecError(
            f"unknown registry kind {kind!r}{hint}; "
            f"kinds: {', '.join(registry_kinds())}"
        )
    return registry


def registry_keys(kind: str) -> tuple[str, ...]:
    """Valid keys of one kind (built-ins plus everything registered)."""
    return _registry(kind).names()


def validate_key(kind: str, key: str) -> str:
    """Check ``key`` against ``kind``'s registry; returns the key unchanged.

    Raises :class:`SpecError` naming the kind, the known keys, and the
    closest match — the error surface every spec field funnels through.
    """
    registry = _registry(kind)
    if key not in registry:
        raise SpecError(registry.miss(key, f"{kind} key"))
    return key


def resolve(kind: str, key: str, **kwargs: Any) -> Any:
    """Instantiate the component registered under ``(kind, key)``.

    The key is checked exactly as :func:`validate_key` checks it, and only
    a found key's factory is called, with ``kwargs`` (e.g. workload
    parameters, scheduler splitter).  Errors the factory raises propagate.
    """
    validate_key(kind, key)
    return _registry(kind).build(key, **kwargs)


def register(kind: str, key: str, factory: Any) -> None:
    """Register a custom component under ``(kind, key)``.

    The component lands in the domain's own registry, so it is visible
    both here and through the subsystem's accessors.  Duplicate keys, and
    any key of a fixed kind, are rejected with the domain's error.
    """
    _registry(kind).register(key, factory)
