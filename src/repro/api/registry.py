"""One string-keyed registry for every pluggable component.

The repo grew a registry per subsystem — topology presets, workloads,
collective algorithms, intra-dimension policies, cluster fairness policies,
scheduler kinds — each with its own ``get_*`` / ``*_names`` / ``register_*``
trio.  Scenario specs name *all* of these by key, so this module unifies
them behind one surface:

* :func:`resolve` — instantiate a component: ``resolve("workload", "dlrm")``;
* :func:`registry_keys` — list the valid keys of one kind;
* :func:`validate_key` — check a key (case-rules of the underlying
  registry apply) and raise :class:`SpecError` with a did-you-mean hint;
* :func:`register` — plugin surface generalizing
  ``collectives/registry.register_algorithm``: one call registers a custom
  component in the *underlying* domain registry, so both the old per-module
  accessors and every spec/CLI key lookup see it.

Kinds: ``topology``, ``workload``, ``collective``, ``scheduler``,
``policy``, ``fairness``, ``placement``, ``algorithm``, ``backend``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

from ..cluster import fairness as _fairness
from ..cluster import placement as _placement
from ..collectives import registry as _algorithms
from ..collectives.types import CollectiveType
from ..core import policies as _policies
from ..core.scheduler import SCHEDULER_KINDS, SchedulerFactory
from ..errors import ReproError, SpecError, did_you_mean
from ..sim import backends as _backends
from ..topology import presets as _presets
from ..workloads import get_workload, register_workload, workload_names

#: Collective-type keys (canonical names; ``CollectiveType.from_name`` also
#: accepts the short aliases ar/rs/ag/a2a).
COLLECTIVE_KEYS: tuple[str, ...] = (
    "allreduce", "reducescatter", "allgather", "alltoall",
)


def _resolve_scheduler(key: str, **kwargs: Any) -> SchedulerFactory:
    return SchedulerFactory(key, **kwargs)


@dataclass(frozen=True)
class _Kind:
    """Adapter from the unified surface onto one domain registry."""

    name: str
    resolver: Callable[..., Any]
    lister: Callable[[], tuple[str, ...]]
    #: Domain-registry ``register_*`` hook; ``None`` = not extensible.
    registrar: Callable[[str, Any], None] | None = None
    #: Whether the underlying resolver is case-insensitive.
    casefold: bool = True


_KINDS: dict[str, _Kind] = {
    "topology": _Kind(
        "topology", _presets.get_topology,
        _presets.preset_names, _presets.register_preset, casefold=False,
    ),
    "workload": _Kind(
        "workload", get_workload, workload_names, register_workload,
    ),
    "collective": _Kind(
        "collective",
        lambda key: CollectiveType.from_name(key),
        lambda: COLLECTIVE_KEYS,
    ),
    "scheduler": _Kind(
        "scheduler", _resolve_scheduler, lambda: SCHEDULER_KINDS,
    ),
    "policy": _Kind(
        "policy", _policies.get_policy,
        _policies.policy_names, _policies.register_policy,
    ),
    "fairness": _Kind(
        "fairness", _fairness.get_fairness,
        _fairness.fairness_names, _fairness.register_fairness,
    ),
    "placement": _Kind(
        "placement", _placement.get_placement,
        _placement.placement_names, _placement.register_placement,
    ),
    "algorithm": _Kind(
        "algorithm", _algorithms.get_algorithm,
        _algorithms.algorithm_names, _algorithms.register_algorithm,
        casefold=False,
    ),
    "backend": _Kind(
        "backend", _backends.get_backend,
        _backends.backend_names, _backends.register_backend,
    ),
}


def registry_kinds() -> tuple[str, ...]:
    """The component kinds the unified registry knows."""
    return tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    entry = _KINDS.get(kind)
    if entry is None:
        hint = did_you_mean(kind, registry_kinds())
        raise SpecError(
            f"unknown registry kind {kind!r}{hint}; "
            f"kinds: {', '.join(registry_kinds())}"
        )
    return entry


def registry_keys(kind: str) -> tuple[str, ...]:
    """Valid keys of one kind (built-ins plus everything registered)."""
    return tuple(_kind(kind).lister())


def validate_key(kind: str, key: str) -> str:
    """Check ``key`` against ``kind``'s registry; returns the key unchanged.

    Raises :class:`SpecError` naming the kind, the known keys, and the
    closest match — the error surface every spec field funnels through.
    """
    entry = _kind(kind)
    known = entry.lister()
    if not isinstance(key, str):
        # Specs are plain JSON: a mistyped document can put any value here
        # (``"placement": 5``), which must surface as a spec error, not an
        # AttributeError traceback out of the case-folding below.
        raise SpecError(
            f"{kind} key must be a string, got {key!r}; "
            f"known: {', '.join(known)}"
        )
    if key in known:
        return key
    if entry.casefold and key.lower() in {k.lower() for k in known}:
        return key
    hint = did_you_mean(key, known)
    raise SpecError(
        f"unknown {kind} key {key!r}{hint}; known: {', '.join(known)}"
    )


def resolve(kind: str, key: str, **kwargs: Any) -> Any:
    """Instantiate the component registered under ``(kind, key)``.

    ``kwargs`` are forwarded to the factory (e.g. workload parameters,
    scheduler splitter).  Key misses raise :class:`SpecError` with a
    did-you-mean hint regardless of which exception the domain registry
    uses internally.
    """
    entry = _kind(kind)
    try:
        return entry.resolver(key, **kwargs)
    except ReproError as error:
        if "unknown" not in str(error):
            raise  # a real factory failure, not a key miss
        known = entry.lister()
        hint = did_you_mean(key.lower(), tuple(k.lower() for k in known))
        raise SpecError(
            f"unknown {kind} key {key!r}{hint}; known: {', '.join(known)}"
        ) from error


def register(kind: str, key: str, factory: Any) -> None:
    """Register a custom component under ``(kind, key)``.

    Delegates to the domain registry (``register_preset``,
    ``register_workload``, ``register_policy``, ``register_fairness``,
    ``register_placement``, ``register_algorithm``), so the component is
    visible both here and
    through the subsystem's own accessors.  Duplicate keys are rejected by
    the domain registry.
    """
    entry = _kind(kind)
    if entry.registrar is None:
        raise SpecError(
            f"registry kind {kind!r} is fixed and cannot be extended"
        )
    entry.registrar(key, factory)
