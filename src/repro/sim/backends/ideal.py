"""The Table 3 "Ideal" network, registered as the ``"ideal"`` backend.

:class:`IdealNetwork` is a fluid server that moves each collective's
schedule-invariant byte volume at the full aggregate bandwidth of the
dimensions it spans.  ``backend: "ideal"`` is the registry spelling of the
older ``ideal_network: true`` training flag (the flag remains an alias).
The ideal model has no scheduler, no per-tenant accounting, and no fault
surface — its capability flags, all off, let the spec layer reject those
combinations up front.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from ...core.ideal import IdealEstimator
from ..engine import EventQueue
from ..network import CollectivePlanner, CollectiveResult, NetworkBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.policies import IntraDimPolicy
    from ...core.scheduler import SchedulerFactory
    from ...topology import Topology
    from ..executor import FusionConfig


class IdealNetwork(NetworkBackend):
    """Fluid 100%-utilization network (Table 3 "Ideal").

    Each collective completes after ``invariant_bytes / total_BW`` of
    *service* time; concurrent collectives queue FIFO on the fluid server
    (they share the same wires, so a lower bound must still serialize their
    byte volumes).  Used for the Ideal bars of Fig. 12.  The server is
    schedule-free and exposes no execution trace.
    """

    key = "ideal"
    description = (
        "fluid 100%-utilization lower bound (Table 3 Ideal); "
        "schedule-independent, no faults/fairness"
    )

    @classmethod
    def build(
        cls,
        topology: "Topology",
        *,
        scheduler: "SchedulerFactory | None" = None,
        policy: "str | IntraDimPolicy" = "SCF",
        fusion: "FusionConfig | None" = None,
        engine: EventQueue | None = None,
        record_ops: bool = True,
        audit: bool | None = None,
        options: dict[str, Any] | None = None,
    ) -> IdealNetwork:
        cls.validate_options(options)
        return cls(topology, engine=engine)

    def __init__(self, topology: "Topology", engine: EventQueue | None = None) -> None:
        self.topology = topology
        self.engine = engine or EventQueue()
        self._estimator = IdealEstimator()
        self._server_free_at = 0.0
        self._results: list[CollectiveResult] = []
        self._planner = CollectivePlanner(topology)

    def _start_collective(
        self,
        result: CollectiveResult,
        on_complete: Callable[[CollectiveResult], None] | None,
        scheduler: "SchedulerFactory | None",
    ) -> None:
        request = result.request
        subtopo = self._planner.subtopology(request)[0]
        service = self._estimator.collective_time(request.ctype, request.size, subtopo)
        begin = max(self.engine.now, self._server_free_at)
        finish = begin + service
        self._server_free_at = finish

        def complete() -> None:
            result.completion_time = self.engine.now
            if on_complete is not None:
                on_complete(result)

        self.engine.schedule(finish, complete)

    def run(self) -> list[CollectiveResult]:
        self.engine.run()
        return list(self._results)
