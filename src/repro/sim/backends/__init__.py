"""Pluggable network-fidelity backends, one network class each.

See :mod:`repro.sim.backends.base` for the interface and
``docs/backends.md`` for the fidelity/speed tradeoff.  The four
built-ins register at import time; plugins register their own class via
``register_backend`` (or ``repro.api.register("backend", ...)``).
"""

from __future__ import annotations

from ..network import NetworkBackend, NetworkSimulator
from .base import (
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_key,
)
from .fluid import FluidNetwork, FluidOptions
from .ideal import IdealNetwork
from .packet import (
    ROUTING_MODES,
    PacketNetwork,
    PacketOptions,
    lane_for_packet,
    packetize,
    service_packets,
)

register_backend(NetworkSimulator.key, NetworkSimulator)
register_backend(FluidNetwork.key, FluidNetwork)
register_backend(IdealNetwork.key, IdealNetwork)
register_backend(PacketNetwork.key, PacketNetwork)

__all__ = [
    "DEFAULT_BACKEND",
    "ROUTING_MODES",
    "FluidNetwork",
    "FluidOptions",
    "IdealNetwork",
    "NetworkBackend",
    "PacketNetwork",
    "PacketOptions",
    "backend_names",
    "get_backend",
    "lane_for_packet",
    "packetize",
    "register_backend",
    "resolve_backend_key",
    "service_packets",
]
