"""Chunk and chunk-plan data structures (paper Sec. 2.3, Fig. 6).

A *chunk* is the scheduling unit: an equal share of a collective's payload
that traverses the network dimensions independently.  A :class:`ChunkPlan`
captures everything the executor needs for one chunk: its identity, its
dimension order, and the fully-sized list of stages; a
:class:`CollectivePlan` is the schedule for the whole collective — the
``Schedule[][]`` output of Algorithm 1 plus the per-stage size annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..collectives.phases import Stage, stage_plan
from ..collectives.types import CollectiveRequest, CollectiveType
from ..errors import ScheduleError
from ..numeric import ordered_sum
from ..topology import Topology


@dataclass(frozen=True)
class ChunkPlan:
    """The schedule of one chunk: its dimension order and sized stages.

    ``dim_order`` is the RS-phase order for All-Reduce (the AG phase mirrors
    it, Algorithm 1 line 8) or the single-phase order otherwise.  Dimension
    indices are local to the (sub-)topology the collective runs on.
    """

    chunk_id: int
    size: float
    ctype: CollectiveType
    dim_order: tuple[int, ...]
    stages: tuple[Stage, ...]

    @property
    def nstages(self) -> int:
        return len(self.stages)

    def stage(self, index: int) -> Stage:
        return self.stages[index]


@dataclass(frozen=True)
class CollectivePlan:
    """The full schedule for one collective: one :class:`ChunkPlan` per chunk.

    Also records which scheduler produced it and the topology it targets so
    results can be attributed without side-channel bookkeeping.
    """

    request: CollectiveRequest
    topology: Topology
    chunks: tuple[ChunkPlan, ...]
    scheduler_name: str = ""
    issue_time: float = 0.0
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def nchunks(self) -> int:
        return len(self.chunks)

    @property
    def total_ops(self) -> int:
        return ordered_sum(c.nstages for c in self.chunks)

    def dim_orders(self) -> list[tuple[int, ...]]:
        """Dimension orders of all chunks, in chunk order (Algorithm 1 output)."""
        return [c.dim_order for c in self.chunks]


def build_chunk_plan(
    chunk_id: int,
    ctype: CollectiveType,
    chunk_size: float,
    dim_order: Sequence[int],
    topology: Topology,
) -> ChunkPlan:
    """Construct a :class:`ChunkPlan`, computing the sized stage list."""
    stages = tuple(stage_plan(ctype, chunk_size, dim_order, topology))
    return ChunkPlan(
        chunk_id=chunk_id,
        size=chunk_size,
        ctype=ctype,
        dim_order=tuple(dim_order),
        stages=stages,
    )


def build_chunk_plans(
    ctype: CollectiveType,
    chunk_sizes: Sequence[float],
    orders: Sequence[Sequence[int]],
    topology: Topology,
) -> tuple[ChunkPlan, ...]:
    """One :class:`ChunkPlan` per (size, order) pair, in chunk order.

    A chunk's stages depend only on its size and dimension order, and equal
    chunks have at most ``D!`` orders: :func:`stage_plan` runs once per
    distinct (size, order), and the chunks sharing it share its stage tuple.
    """
    shapes: dict[tuple[float, tuple[int, ...]], tuple[Stage, ...]] = {}
    chunks: list[ChunkPlan] = []
    for chunk_id, (size, dim_order) in enumerate(zip(chunk_sizes, orders)):
        order = tuple(dim_order)
        stages = shapes.get((size, order))
        if stages is None:
            stages = tuple(stage_plan(ctype, size, order, topology))
            shapes[size, order] = stages
        chunks.append(ChunkPlan(chunk_id, size, ctype, order, stages))
    return tuple(chunks)


def validate_collective_plan(plan: CollectivePlan) -> None:
    """Sanity-check a plan: chunk ids, sizes, and per-chunk stage structure.

    Raises :class:`ScheduleError` on any inconsistency.  Used by tests.
    """
    if not plan.chunks:
        raise ScheduleError("collective plan has no chunks")
    expected_total = plan.request.size
    actual_total = ordered_sum(c.size for c in plan.chunks)
    if abs(actual_total - expected_total) > 1e-6 * max(expected_total, 1.0):
        raise ScheduleError(
            f"chunk sizes sum to {actual_total}, expected {expected_total}"
        )
    for index, chunk in enumerate(plan.chunks):
        if chunk.chunk_id != index:
            raise ScheduleError(
                f"chunk ids must be dense: got {chunk.chunk_id} at position {index}"
            )
        if chunk.ctype is not plan.request.ctype:
            raise ScheduleError("chunk collective type differs from request")
        rebuilt = build_chunk_plan(
            chunk.chunk_id, chunk.ctype, chunk.size, chunk.dim_order, plan.topology
        )
        if rebuilt.stages != chunk.stages:
            raise ScheduleError(
                f"chunk {index} stage list inconsistent with its dim order"
            )
