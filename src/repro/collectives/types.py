"""Collective communication pattern types (paper Sec. 2.1).

The paper's scheduler handles All-Reduce (AR), Reduce-Scatter (RS) and
All-Gather (AG); we additionally model All-to-All (A2A) because DLRM's
model-parallel embedding exchange uses it (Sec. 5.2 / Sec. 6.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import CollectiveError


class CollectiveType(enum.Enum):
    """The communication pattern requested by the workload layer."""

    ALL_REDUCE = "AllReduce"
    REDUCE_SCATTER = "ReduceScatter"
    ALL_GATHER = "AllGather"
    ALL_TO_ALL = "AllToAll"

    @property
    def is_two_phase(self) -> bool:
        """All-Reduce decomposes into an RS phase followed by an AG phase."""
        return self is CollectiveType.ALL_REDUCE

    @classmethod
    def from_name(cls, name: str) -> "CollectiveType":
        lowered = name.strip().lower().replace("-", "").replace("_", "")
        aliases = {
            "allreduce": cls.ALL_REDUCE,
            "ar": cls.ALL_REDUCE,
            "reducescatter": cls.REDUCE_SCATTER,
            "rs": cls.REDUCE_SCATTER,
            "allgather": cls.ALL_GATHER,
            "ag": cls.ALL_GATHER,
            "alltoall": cls.ALL_TO_ALL,
            "a2a": cls.ALL_TO_ALL,
        }
        if lowered not in aliases:
            raise CollectiveError(f"unknown collective type {name!r}")
        return aliases[lowered]


class PhaseOp(enum.Enum):
    """The operation a chunk performs on one dimension during one stage."""

    RS = "RS"
    AG = "AG"
    A2A = "A2A"


@dataclass(frozen=True)
class CollectiveRequest:
    """A collective operation issued by the workload layer (paper Fig. 6, step 1).

    Attributes
    ----------
    ctype:
        The communication pattern.
    size:
        Total collective payload per NPU, in bytes (the data residing on each
        NPU before the collective starts).
    tag:
        Free-form label used by the training simulator to attribute exposed
        communication (e.g. ``"DP"`` vs ``"MP"``).
    dim_indices:
        Which topology dimensions the communicator spans; ``None`` means all.
    peer_counts:
        Optional per-dimension participating peer counts, for communicators
        that span only part of a physical dimension (e.g. a 128-NPU
        model-parallel group on a 16x64 platform).  Aligned with
        ``dim_indices``; ``None`` means the full dimension size.
    priority:
        Scheduling priority when multiple collectives share the network:
        higher-priority ops are preferred by the intra-dimension policies
        (like NCCL priority streams).  Blocking model-parallel collectives
        typically outrank asynchronous data-parallel gradient traffic.
    owner:
        Identity of the tenant (training job) this collective belongs to.
        The network simulator keeps per-owner communication-active
        intervals so multi-job cluster runs can attribute network time to
        individual jobs.  Empty string for single-tenant simulations.

    A request is a plain value: the network it is submitted to numbers it
    (``CollectiveResult.seq``).
    """

    ctype: CollectiveType
    size: float
    tag: str = ""
    dim_indices: tuple[int, ...] | None = None
    peer_counts: tuple[int, ...] | None = None
    priority: int = 0
    owner: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise CollectiveError(
                f"collective size must be positive, got {self.size!r}"
            )
        if self.peer_counts is not None:
            if self.dim_indices is None:
                raise CollectiveError(
                    "peer_counts requires dim_indices to be specified"
                )
            if len(self.peer_counts) != len(self.dim_indices):
                raise CollectiveError(
                    f"{len(self.dim_indices)} dim indices but "
                    f"{len(self.peer_counts)} peer counts"
                )

    @property
    def communicator_key(self) -> tuple:
        """Hashable key identifying the communicator this request spans."""
        return (self.dim_indices, self.peer_counts)
