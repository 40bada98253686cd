"""The default backend: the paper's analytical bandwidth model.

Wraps today's :class:`~repro.sim.network.NetworkSimulator` construction
unchanged — a scenario with ``backend: "analytical"`` (or unset) builds
exactly the object the pre-backend code built, so timelines are
bit-identical either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar

from ..network import NetworkSimulator
from .base import NetworkBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.policies import IntraDimPolicy
    from ...core.scheduler import SchedulerFactory
    from ...topology import Topology
    from ..engine import EventQueue
    from ..executor import FusionConfig


class AnalyticalBackend(NetworkBackend):
    """Sec. 4.4 latency model over per-dimension fluid channels."""

    key: ClassVar[str] = "analytical"
    description: ClassVar[str] = (
        "paper bandwidth model: per-dimension fluid channels, "
        "alpha-beta op latency (default)"
    )
    accepts_scheduler: ClassVar[bool] = True
    provides_result: ClassVar[bool] = True
    supports_faults: ClassVar[bool] = True
    supports_sharing: ClassVar[bool] = True
    supports_cluster: ClassVar[bool] = True

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
    ) -> NetworkSimulator:
        self.validate_options(options)
        return NetworkSimulator(
            topology,
            scheduler=scheduler,
            policy=policy,
            fusion=fusion,
            engine=engine,
            record_ops=record_ops,
            audit=audit,
        )
