"""Layer and communication descriptors for DNN workload models.

A workload is a sequence of :class:`Layer` objects.  Each layer carries its
forward/backward FLOP counts, memory traffic, parameter (gradient) bytes,
and optional *model-parallel* communication attached to its forward and/or
backward pass.  Data-parallel gradient All-Reduces are not attached to
layers here — the training simulator derives them from ``param_bytes`` plus
the workload's parallelism plan (with optional bucketing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from ..collectives.types import CollectiveType
from ..errors import WorkloadError
from ..numeric import ordered_sum
from ..typed import by_name

#: FP16 — the paper's gradient precision for all workloads (Sec. 5.2).
GRADIENT_BYTES = 2.0


@dataclass(frozen=True)
class CommAttachment:
    """A model-parallel collective tied to a layer's fwd or bwd pass.

    Attributes
    ----------
    ctype:
        Collective pattern (All-Reduce / All-Gather / All-to-All ...).
    size:
        Payload per NPU in bytes.
    blocking:
        If True the pass stalls until the collective completes (tensor
        parallel activations); if False it is issued asynchronously and
        waited on via ``wait_label`` (DLRM's embedding All-to-All).
    label:
        Identifier for async attachments, referenced by ``WaitComm`` steps.
    """

    ctype: Annotated[CollectiveType, by_name(CollectiveType.from_name)]
    size: float
    blocking: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise WorkloadError(f"comm size must be positive, got {self.size}")
        if not self.blocking and not self.label:
            raise WorkloadError("async comm attachments need a label to wait on")


@dataclass(frozen=True)
class Layer:
    """One schedulable unit of a DNN (a block, an LSTM layer, an MLP...).

    FLOPs are per NPU per iteration (i.e. after model-parallel sharding and
    for the local mini-batch).  ``param_bytes`` is the *local* gradient
    volume this layer contributes to data-parallel synchronization.
    """

    name: str
    fwd_flops: float = 0.0
    bwd_flops: float = 0.0
    param_bytes: float = 0.0
    fwd_mem_bytes: float = 0.0
    bwd_mem_bytes: float = 0.0
    fwd_comm: CommAttachment | None = None
    bwd_comm: CommAttachment | None = None
    fwd_wait_label: str = ""
    bwd_wait_label: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("layers must be named")
        if self.fwd_flops < 0 or self.bwd_flops < 0:
            raise WorkloadError(f"negative FLOPs on layer {self.name!r}")
        if self.param_bytes < 0:
            raise WorkloadError(f"negative param bytes on layer {self.name!r}")
        if self.fwd_mem_bytes < 0 or self.bwd_mem_bytes < 0:
            raise WorkloadError(f"negative memory bytes on layer {self.name!r}")

    @property
    def params(self) -> float:
        """Parameter count implied by ``param_bytes`` at FP16."""
        return self.param_bytes / GRADIENT_BYTES


def total_param_bytes(layers: list[Layer]) -> float:
    """Sum of local gradient bytes across layers."""
    return ordered_sum(layer.param_bytes for layer in layers)


def total_flops(layers: list[Layer]) -> tuple[float, float]:
    """``(forward, backward)`` FLOPs across layers."""
    return (
        ordered_sum(layer.fwd_flops for layer in layers),
        ordered_sum(layer.bwd_flops for layer in layers),
    )
