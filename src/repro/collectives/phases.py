"""Stage-plan and stage-size math for hierarchical collectives (Sec. 2.3).

A chunk traversing a ``D``-dimensional network executes ``2D`` stages for
All-Reduce (``D`` RS stages in some dimension order, then ``D`` AG stages in
the *reverse* order — Algorithm 1 line 8), or ``D`` stages for a pure
RS / AG / A2A.

Stage sizes follow the paper's convention ("we assume the size of each chunk
in each stage to be the size of the corresponding chunk data residing on each
NPU before the stage begins", with AG stages quoted at their post-gather size
so that a 64 MB RS and a 16 MB->64 MB AG cost the same — cf. Fig. 5):

* RS on a dimension of size ``P``: ``stage_size = resident``; the resident
  data then shrinks ``P``-fold.
* AG: the resident data grows ``P``-fold *first*; ``stage_size`` is the
  grown size.
* A2A: ``stage_size = resident``; resident size is unchanged.

This module also exposes the **invariant-bytes lemma** used by the Ideal
estimator: the total bytes per NPU of a hierarchical RS telescopes to
``S x (1 - 1/P_total)`` regardless of the dimension order, because

    sum_j (prod_{i<j} 1/P_i) x (1 - 1/P_j)  =  1 - prod_j 1/P_j.

An AG's size ``S`` is the pre-gather shard, which grows to ``S x P_total``;
the AG is an RS of that gathered size run backwards, so it sends
``S x (P_total - 1)`` under every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from ..errors import CollectiveError, ScheduleError
from ..numeric import ordered_sum
from ..topology import Topology
from .types import CollectiveType, PhaseOp


@dataclass(frozen=True)
class Stage:
    """One chunk operation: a phase op on one dimension at a known size.

    ``dim_index`` is local to the topology the collective runs on;
    ``stage_size`` is the paper-convention size the op is charged for.
    """

    dim_index: int
    op: PhaseOp
    stage_size: float


def validate_dim_order(dim_order: Sequence[int], ndims: int) -> tuple[int, ...]:
    """Check that ``dim_order`` is a permutation of ``range(ndims)``."""
    order = tuple(dim_order)
    if sorted(order) != list(range(ndims)):
        raise ScheduleError(
            f"dimension order {order!r} is not a permutation of 0..{ndims - 1}"
        )
    return order


def stage_plan(
    ctype: CollectiveType,
    chunk_size: float,
    dim_order: Sequence[int],
    topology: Topology,
) -> list[Stage]:
    """Build the per-stage plan for one chunk given its dimension order.

    For All-Reduce the AG phase mirrors the RS order (Algorithm 1 line 8),
    which makes the stage sizes palindromic: the AG stage on a dimension is
    charged exactly the size its RS stage was.
    """
    if chunk_size <= 0:
        raise CollectiveError(f"chunk size must be positive, got {chunk_size}")
    order = validate_dim_order(dim_order, topology.ndims)
    sizes = [topology.dims[i].size for i in order]

    stages: list[Stage] = []
    resident = chunk_size
    if ctype is CollectiveType.ALL_REDUCE:
        for dim_index, peers in zip(order, sizes):
            stages.append(Stage(dim_index, PhaseOp.RS, resident))
            resident /= peers
        for dim_index, peers in zip(reversed(order), reversed(sizes)):
            resident *= peers
            stages.append(Stage(dim_index, PhaseOp.AG, resident))
    elif ctype is CollectiveType.REDUCE_SCATTER:
        for dim_index, peers in zip(order, sizes):
            stages.append(Stage(dim_index, PhaseOp.RS, resident))
            resident /= peers
    elif ctype is CollectiveType.ALL_GATHER:
        for dim_index, peers in zip(order, sizes):
            resident *= peers
            stages.append(Stage(dim_index, PhaseOp.AG, resident))
    elif ctype is CollectiveType.ALL_TO_ALL:
        for dim_index in order:
            stages.append(Stage(dim_index, PhaseOp.A2A, resident))
    else:  # pragma: no cover - exhaustive over the enum
        raise CollectiveError(f"unsupported collective type {ctype!r}")
    return stages


def phase_ops(ctype: CollectiveType, ndims: int) -> list[PhaseOp]:
    """The op sequence (without dimensions) a chunk of ``ctype`` performs."""
    if ctype is CollectiveType.ALL_REDUCE:
        return [PhaseOp.RS] * ndims + [PhaseOp.AG] * ndims
    if ctype is CollectiveType.REDUCE_SCATTER:
        return [PhaseOp.RS] * ndims
    if ctype is CollectiveType.ALL_GATHER:
        return [PhaseOp.AG] * ndims
    if ctype is CollectiveType.ALL_TO_ALL:
        return [PhaseOp.A2A] * ndims
    raise CollectiveError(f"unsupported collective type {ctype!r}")


def invariant_bytes_per_npu(
    ctype: CollectiveType, size: float, topology: Topology
) -> float:
    """Schedule-invariant total bytes each NPU sends for the collective.

    This is the quantity the paper's Ideal method divides by the total BW
    (Table 3).  For RS the telescoping sum gives ``S x (1 - 1/P_total)``;
    All-Reduce pays it twice.  An AG's ``S`` is the pre-gather shard, so it
    sends ``S x (P_total - 1)``, ``P_total`` times an RS of the same ``S``.
    Hierarchical A2A pays ``S x (1 - 1/P_K)`` per dimension at constant
    resident size.
    """
    if size <= 0:
        raise CollectiveError(f"collective size must be positive, got {size}")
    total_peers = math.prod(d.size for d in topology.dims)
    if ctype is CollectiveType.ALL_GATHER:
        return size * (total_peers - 1)
    one_phase = size * (1.0 - 1.0 / total_peers)
    if ctype is CollectiveType.ALL_REDUCE:
        return 2.0 * one_phase
    if ctype is CollectiveType.REDUCE_SCATTER:
        return one_phase
    if ctype is CollectiveType.ALL_TO_ALL:
        return size * ordered_sum(1.0 - 1.0 / d.size for d in topology.dims)
    raise CollectiveError(f"unsupported collective type {ctype!r}")


def stage_bytes_fraction(
    ctype: CollectiveType,
    dim_order: Sequence[int],
    topology: Topology,
) -> dict[int, float]:
    """Per-dimension *fraction of the collective size* sent under an order.

    Returns ``{dim_index: bytes / S}`` for a unit-size chunk following
    ``dim_order``.  The LP ideal (``core.ideal.LpIdealEstimator``) sums it
    over dimension sets to find the fewest bytes any order puts on them.
    """
    stages = stage_plan(ctype, 1.0, dim_order, topology)
    fractions: dict[int, float] = {i: 0.0 for i in range(topology.ndims)}
    for stage in stages:
        peers = topology.dims[stage.dim_index].size
        fractions[stage.dim_index] += stage.stage_size * (peers - 1) / peers
    return fractions
