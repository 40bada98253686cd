"""The ``backend`` registry: network-fidelity models by key.

A *backend* is a network-fidelity model: the object that training/cluster
loops submit collectives to (``submit`` / ``run`` / shared engine).  Each
one is a single network class, a subclass of
:class:`~repro.sim.network.NetworkBackend` that declares its key,
description, capability flags and options, and builds through the shared
``build`` classmethod.  The built-ins differ in how faithfully the wires
are modeled: ``analytical`` (:class:`~repro.sim.network.NetworkSimulator`,
the paper's bandwidth model and the default), ``fluid``
(:class:`~repro.sim.backends.fluid.FluidNetwork`, closed-form shared
channels), ``ideal`` (:class:`~repro.sim.backends.ideal.IdealNetwork`,
the Table 3 bound) and ``packet``
(:class:`~repro.sim.backends.packet.PacketNetwork`, MTU packets through
FIFO egress queues).

:data:`BACKENDS` (``register_backend`` / ``get_backend`` /
``backend_names``) is also the ``"backend"`` kind of the unified
:mod:`repro.api.registry`, so scenario specs and the CLI name backends by
key with the same did-you-mean validation as every other component.
"""

from __future__ import annotations

from typing import Any, cast

from ...errors import ConfigError
from ...registry import Registry
from ..network import NetworkBackend

#: The backend used when a scenario/config leaves ``backend`` unset.
DEFAULT_BACKEND = "analytical"


class _BackendRegistry(Registry[Any]):
    """Maps each key straight to its :class:`NetworkBackend` subclass."""

    def build(
        self, name: str, where: str | None = None, /, **kwargs: Any
    ) -> type[NetworkBackend]:
        if kwargs:
            raise self.error(f"backend {name!r} is a class: call its build()")
        return cast("type[NetworkBackend]", self.lookup(name))

    def register(self, name: str, factory: Any) -> None:
        if not (isinstance(factory, type) and issubclass(factory, NetworkBackend)):
            raise self.error(
                f"backend {name!r} must be a NetworkBackend subclass, got {factory!r}"
            )
        super().register(name, factory)


#: Network backends by (case-insensitive) key.  ``get_backend`` returns
#: the class; ``register_backend`` takes one.
BACKENDS = _BackendRegistry("backend", {}, error=ConfigError)
get_backend = BACKENDS.build
backend_names = BACKENDS.names
register_backend = BACKENDS.register


def resolve_backend_key(backend: str | None, ideal_network: bool = False) -> str:
    """The effective backend key for a scenario/config.

    ``ideal_network=True`` (the pre-backend spelling) is an alias for
    ``backend="ideal"``; combined with any other explicit ``backend`` it
    is a conflict and raises :class:`ConfigError`.  Keys compare
    lower-cased, as the registry compares them.
    """
    if backend is None:
        return "ideal" if ideal_network else DEFAULT_BACKEND
    key = backend.lower()
    if ideal_network and key != "ideal":
        raise ConfigError(
            f"ideal_network=True conflicts with backend={backend!r}; "
            "ideal_network is an alias for backend='ideal'"
        )
    return key
