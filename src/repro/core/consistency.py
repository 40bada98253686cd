"""Chunk schedule consistency (paper Sec. 4.6).

Deadlock-free distributed execution requires every NPU to run the same
order of chunk operations on every dimension:

* **Inter-dimension consistency** (Sec. 4.6.1) is automatic: the latency
  model and load tracker are deterministic and replicated, so every NPU
  derives the identical ``Schedule[][]`` — our scheduler is a pure function
  of the request, so this holds by construction (tested, not re-derived).
* **Intra-dimension consistency** (Sec. 4.6.2): runtime noise could make
  chunks become ready in different orders on different NPUs.  Themis
  therefore *pre-simulates* the schedule deterministically, extracts the
  per-dimension op order, and enforces it at runtime — a dimension waits
  for the next op in its locked order even if another op is ready sooner.

:func:`presimulate_intra_dim_orders` runs that deterministic simulation
(the very same executor, on a private engine) and returns, per dimension,
the op-key sequence to enforce.  The pre-simulation needs only *ordering*,
not exact times, so it runs the collective in isolation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ScheduleError
from ..topology import Topology
from .chunk import CollectivePlan
from .scheduler import SchedulerFactory

if TYPE_CHECKING:  # pragma: no cover
    from ..collectives.types import CollectiveRequest
    from ..core.policies import IntraDimPolicy
    from ..sim.executor import FusionConfig
    from ..sim.network import ExecutionResult
    from .latency_model import LatencyModel

OpKey = tuple[int, int, int]


class _Replay:
    """A scheduler that returns one already-computed plan."""

    def __init__(self, plan: CollectivePlan) -> None:
        self.name = plan.scheduler_name or "replay"
        self._plan = plan

    def plan(
        self,
        request: "CollectiveRequest",
        subtopo: Topology,
        model: "LatencyModel | None" = None,
        issue_time: float = 0.0,
    ) -> CollectivePlan:
        return self._plan


class _ReplayFactory(SchedulerFactory):
    """Scheduler factory that replays an already-computed plan.

    A subclass, never the base type, so the network's plan cache (which
    caches only plain :class:`SchedulerFactory` plans) never stores it.
    """

    def __init__(self, plan: CollectivePlan) -> None:
        super().__init__("baseline")
        self._plan = plan

    def create(self) -> _Replay:  # type: ignore[override]
        return _Replay(self._plan)


def replay_alone(
    plan: CollectivePlan,
    topology: Topology,
    policy: "IntraDimPolicy | str" = "SCF",
    fusion: "FusionConfig | None" = None,
) -> "ExecutionResult":
    """Run ``plan``'s collective alone on a fresh network simulator."""
    # Imported here: sim depends on core, so core must not import sim at
    # module load time.
    from ..sim.network import NetworkSimulator

    sim = NetworkSimulator(
        topology, scheduler=_ReplayFactory(plan), policy=policy, fusion=fusion
    )
    sim.submit(plan.request, at_time=0.0)
    return sim.run()


def presimulate_intra_dim_orders(
    plan: CollectivePlan,
    topology: Topology,
    policy: "IntraDimPolicy | str" = "SCF",
    fusion: "FusionConfig | None" = None,
) -> dict[int, list[OpKey]]:
    """Deterministically derive per-dimension op orders for one collective.

    Returns ``{parent_dim_index: [(collective_seq, chunk_id, stage_index),
    ...]}`` in execution-start order.  All NPUs running this function on the
    same plan produce the same answer, which is what makes runtime
    enforcement safe (Sec. 4.6.2).
    """
    if plan is None:
        raise ScheduleError("cannot pre-simulate an empty plan")
    result = replay_alone(plan, topology, policy=policy, fusion=fusion)

    orders: dict[int, list[OpKey]] = {}
    ordered = sorted(
        result.records,
        key=lambda r: (r.start_time, r.chunk_id, r.stage_index),
    )
    for record in ordered:
        orders.setdefault(record.dim_index, []).append(
            (record.collective_seq, record.chunk_id, record.stage_index)
        )
    return orders


def verify_intra_dim_consistency(
    orders_by_npu: list[dict[int, list[OpKey]]],
) -> bool:
    """Check that every NPU derived identical per-dimension orders.

    Models the distributed agreement property: the input is the list of
    per-NPU pre-simulation outputs; all must match exactly.
    """
    if not orders_by_npu:
        raise ScheduleError("no per-NPU orders supplied")
    reference = orders_by_npu[0]
    return all(other == reference for other in orders_by_npu[1:])
