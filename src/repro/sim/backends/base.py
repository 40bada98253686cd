"""The :class:`NetworkBackend` interface and its domain registry.

A *backend* is a network-fidelity model: given a platform it builds the
object that training/cluster loops submit collectives to.  All backends
speak the same submission surface (``submit`` / ``run`` / shared engine);
they differ in how faithfully the wires are modeled:

* ``analytical`` — the paper's bandwidth model (:class:`DimensionChannel`
  fluid batches).  The default, and the reference for every published
  number in this repo.
* ``ideal`` — the Table 3 "Ideal" fluid server (schedule-invariant bytes
  at full aggregate bandwidth).
* ``packet`` — MTU packetization, FIFO egress queues, store-and-forward
  switch hops (:class:`~repro.sim.backends.packet.PacketNetwork`).
* ``fluid`` — every wire in GPS weighted-share mode with closed-form rate
  integration, the fast path for 512–4096-job cluster runs
  (:class:`~repro.sim.backends.fluid.FluidNetwork`).

Backends are registered in :data:`BACKENDS` (``register_backend`` /
``get_backend`` / ``backend_names``), which is also the ``"backend"`` kind
of the unified :mod:`repro.api.registry`, so scenario specs and the CLI
name them by key with the same did-you-mean validation as every other
component.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, ClassVar

from ...errors import ConfigError, did_you_mean
from ...registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.policies import IntraDimPolicy
    from ...core.scheduler import SchedulerFactory
    from ...topology import Topology
    from ..engine import EventQueue
    from ..executor import FusionConfig

#: The backend used when a scenario/config leaves ``backend`` unset.
DEFAULT_BACKEND = "analytical"


class NetworkBackend(abc.ABC):
    """Factory + capability descriptor for one network-fidelity model.

    Class attributes advertise what the built network supports, so the
    spec layer can reject incompatible combinations (e.g. weighted
    fairness on a backend without per-tenant wire sharing) with a clear
    error instead of an attribute failure mid-run.
    """

    #: Registry key (``"analytical"``, ``"fluid"``, ``"ideal"``, ``"packet"``).
    key: ClassVar[str] = ""
    #: One-line description for ``themis-sim registry`` and the docs.
    description: ClassVar[str] = ""
    #: Whether ``submit`` accepts a per-request ``scheduler=`` factory.
    accepts_scheduler: ClassVar[bool] = False
    #: Whether the built network exposes ``result() -> ExecutionResult``.
    provides_result: ClassVar[bool] = False
    #: Whether :class:`~repro.sim.faults.FaultSchedule` can be applied.
    supports_faults: ClassVar[bool] = False
    #: Whether weighted per-tenant sharing / priority preemption exist
    #: (``set_tenant_weights`` / ``enable_preemption``).
    supports_sharing: ClassVar[bool] = False
    #: Whether the multi-job cluster simulator can run on this backend
    #: (needs per-owner accounting and per-request schedulers).
    supports_cluster: ClassVar[bool] = False

    @abc.abstractmethod
    def build(
        self,
        topology: "Topology",
        *,
        scheduler: "SchedulerFactory | None" = None,
        policy: "str | IntraDimPolicy" = "SCF",
        fusion: "FusionConfig | None" = None,
        engine: "EventQueue | None" = None,
        record_ops: bool = True,
        audit: bool | None = None,
        options: dict[str, Any] | None = None,
    ) -> Any:
        """Construct the network object for ``topology``.

        ``options`` carries backend-specific knobs (a scenario's
        ``backend_options`` document); backends without knobs reject a
        non-empty dict via :meth:`validate_options`.
        """

    def validate_options(self, options: dict[str, Any] | None) -> None:
        """Reject unknown/malformed ``options`` (default: none allowed).

        Called at spec-validation time so a bad ``backend_options``
        document fails before any simulation is built.
        """
        if options:
            raise ConfigError(
                f"backend {self.key!r} accepts no options, got: "
                f"{', '.join(sorted(options))}"
            )


def options_from_dict(
    options_type: type[Any], data: dict[str, Any] | None, backend: str
) -> Any:
    """Build a backend's options dataclass from a ``backend_options`` document.

    Unknown keys get the same did-you-mean rejection as every other spec
    field; each given value is coerced to the type of its field's default.
    """
    if not data:
        return options_type()
    fields = dataclasses.fields(options_type)
    known = tuple(field.name for field in fields)
    unknown = sorted(set(data) - set(known))
    if unknown:
        hints = ", ".join(f"{key!r}{did_you_mean(key, known)}" for key in unknown)
        raise ConfigError(
            f"unknown {backend} backend option(s): {hints}; "
            f"known: {', '.join(known)}"
        )
    try:
        values = {
            field.name: type(field.default)(data[field.name])
            for field in fields
            if field.name in data
        }
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigError(f"bad {backend} backend option: {error}") from None
    return options_type(**values)


class _BackendRegistry(Registry[NetworkBackend]):
    """Backends are shared: a registered class is built once, at registration."""

    def register(
        self, name: str, factory: NetworkBackend | Callable[[], NetworkBackend]
    ) -> None:
        backend = factory() if isinstance(factory, type) else factory
        if not isinstance(backend, NetworkBackend):
            raise ConfigError(
                f"backend {name!r} must be a NetworkBackend, "
                f"got {type(backend).__name__}"
            )
        super().register(name, lambda: backend)


#: Network backends by (case-insensitive) key; ``get_backend`` returns the
#: one shared instance.  ``register_backend`` takes an instance or a
#: zero-argument class.
BACKENDS = _BackendRegistry("backend", {}, error=ConfigError)
get_backend = BACKENDS.build
backend_names = BACKENDS.names
register_backend = BACKENDS.register


def resolve_backend_key(
    backend: str | None, ideal_network: bool = False
) -> str:
    """The effective backend key for a scenario/config.

    ``ideal_network=True`` (the pre-backend spelling) is an alias for
    ``backend="ideal"``; combined with any other explicit ``backend`` it
    is a conflict and raises :class:`ConfigError`.
    """
    if ideal_network and backend not in (None, "ideal"):
        raise ConfigError(
            f"ideal_network=True conflicts with backend={backend!r}; "
            "ideal_network is an alias for backend='ideal'"
        )
    if backend is not None:
        return backend.lower()
    return "ideal" if ideal_network else DEFAULT_BACKEND
