"""Exhaustive reference scheduler (validation tool, beyond the paper).

Sec. 4.1 observes the schedule space is ``(D! x D!)^C`` for an All-Reduce
of ``C`` chunks on ``D`` dimensions — far too large to search in general,
which is why Themis is greedy.  For *small* instances, however, the space
can be enumerated exactly (restricted, like Themis, to mirrored AG orders:
``(D!)^C``), giving a ground-truth optimum to validate the greedy against.

:class:`ExhaustiveScheduler` enumerates every per-chunk dimension-order
assignment, evaluates each candidate with a full simulation, and keeps the
best.  The search is capped (default 4096 candidates) to make accidental
misuse on big instances impossible.  Tests use it to confirm that Themis's
Fig. 5 schedule (7 units) is exactly optimal for that instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..collectives.types import CollectiveRequest
from ..errors import ScheduleError
from ..topology import Topology
from .chunk import CollectivePlan, build_chunk_plans
from .consistency import replay_alone
from .latency_model import LatencyModel
from .scheduler import CollectiveScheduler
from .splitter import Splitter

#: Refuse to enumerate more than this many candidate schedules.
DEFAULT_SEARCH_CAP = 4096


@dataclass(frozen=True)
class SearchOutcome:
    """Best schedule found plus search statistics."""

    plan: CollectivePlan
    makespan: float
    candidates_evaluated: int


class ExhaustiveScheduler(CollectiveScheduler):
    """Brute-force optimal chunk scheduling for small instances.

    Candidates are evaluated by simulating the collective on a scratch
    network simulator with the given intra-dimension policy, so the
    returned schedule is optimal *for the executor's actual semantics*
    (queueing, pipelined fixed latency), not merely for the fluid load
    model.
    """

    name = "Exhaustive"

    def __init__(
        self,
        splitter: Splitter | None = None,
        policy: str = "SCF",
        search_cap: int = DEFAULT_SEARCH_CAP,
    ) -> None:
        super().__init__(splitter)
        if search_cap < 1:
            raise ScheduleError(f"search cap must be >= 1, got {search_cap}")
        self.policy = policy
        self.search_cap = search_cap
        self.last_outcome: SearchOutcome | None = None

    # -- evaluation -------------------------------------------------------
    def _simulate(
        self,
        request: CollectiveRequest,
        topology: Topology,
        orders: tuple[tuple[int, ...], ...],
        chunk_sizes: list[float],
    ) -> tuple[CollectivePlan, float]:
        # Imported lazily: core must stay importable without sim loaded.
        from ..sim.executor import FusionConfig

        plan = CollectivePlan(
            request=request,
            topology=topology,
            chunks=build_chunk_plans(request.ctype, chunk_sizes, orders, topology),
            scheduler_name=self.name,
        )
        result = replay_alone(
            plan, topology, policy=self.policy, fusion=FusionConfig(enabled=False)
        )
        return plan, result.makespan

    # -- CollectiveScheduler interface ---------------------------------------
    def chunk_orders(
        self,
        request: CollectiveRequest,
        chunk_sizes: list[float],
        model: LatencyModel,
    ) -> list[tuple[int, ...]]:
        topology = model.topology
        perms = list(itertools.permutations(range(topology.ndims)))
        total = len(perms) ** len(chunk_sizes)
        if total > self.search_cap:
            raise ScheduleError(
                f"search space {total} exceeds cap {self.search_cap}; "
                f"use ThemisScheduler for instances this large"
            )
        best_orders: tuple[tuple[int, ...], ...] | None = None
        best_plan: CollectivePlan | None = None
        best_makespan = float("inf")
        evaluated = 0
        for orders in itertools.product(perms, repeat=len(chunk_sizes)):
            plan, makespan = self._simulate(request, topology, orders, chunk_sizes)
            evaluated += 1
            if makespan < best_makespan:
                best_makespan = makespan
                best_orders = orders
                best_plan = plan
        assert best_orders is not None and best_plan is not None
        self.last_outcome = SearchOutcome(
            plan=best_plan,
            makespan=best_makespan,
            candidates_evaluated=evaluated,
        )
        return list(best_orders)
