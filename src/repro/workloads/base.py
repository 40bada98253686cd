"""Workload base class: a named stack of layers plus a parallelism rule.

Concrete workloads (``resnet``, ``gnmt``, ``dlrm``, ``transformer``) build
their layer lists from architectural parameters and choose how they map
onto a topology (pure DP, or MP-over-leading-dims + DP-on-the-rest).

The training simulator consumes three things from a workload:

* ``layers`` — ordered forward-pass layer list (backward runs it reversed),
* ``plan(topology)`` — the DP/MP communicator scopes,
* ``dp_style`` — how data-parallel gradients synchronize:
  ``"allreduce"`` (classic DDP) or ``"zero2"`` (ZeRO stage-2: gradients
  Reduce-Scatter during backprop, parameters All-Gather at iteration end).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import WorkloadError
from ..topology import Topology
from .layers import Layer, total_flops, total_param_bytes
from .parallelism import ParallelismPlan, data_parallel_plan, model_parallel_plan


@dataclass
class Workload:
    """A DNN training workload: layers + batch + parallelization strategy.

    Attributes
    ----------
    name:
        Workload label used in result tables.
    layers:
        Forward-order layer list.
    batch_per_npu:
        Local mini-batch (paper Sec. 5.2: 32 / 512 / 128 / 16 for
        ResNet-152 / DLRM / GNMT / Transformer-1T).
    mp_group_size:
        If set, model-parallel over the leading ``mp_group_size`` NPUs and
        data-parallel over the rest; otherwise pure data parallel.
    dp_style:
        ``"allreduce"`` or ``"zero2"`` (see module docstring).
    """

    name: str
    layers: list[Layer]
    batch_per_npu: int = 1
    mp_group_size: int | None = None
    dp_style: str = "allreduce"
    notes: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise WorkloadError(f"workload {self.name!r} has no layers")
        if self.batch_per_npu < 1:
            raise WorkloadError(
                f"batch size must be >= 1, got {self.batch_per_npu}"
            )
        if self.dp_style not in ("allreduce", "zero2"):
            raise WorkloadError(f"unknown dp_style {self.dp_style!r}")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate layer names in {self.name!r}")

    # --- aggregates ---------------------------------------------------------
    @property
    def total_param_bytes(self) -> float:
        """Local (per-NPU) gradient bytes per iteration."""
        return total_param_bytes(self.layers)

    @property
    def total_params(self) -> float:
        """Local parameter count (FP16)."""
        return self.total_param_bytes / 2.0

    @property
    def total_fwd_flops(self) -> float:
        return total_flops(self.layers)[0]

    @property
    def total_bwd_flops(self) -> float:
        return total_flops(self.layers)[1]

    # --- parallelism ---------------------------------------------------------
    def plan(self, topology: Topology) -> ParallelismPlan:
        """Communicator layout on ``topology`` (Sec. 5.2 rules)."""
        if self.mp_group_size is None:
            return data_parallel_plan()
        return model_parallel_plan(topology, self.mp_group_size)

    def describe(self, topology: Topology | None = None) -> str:
        """Human-readable summary used by examples and bench output."""
        lines = [
            f"{self.name}: {len(self.layers)} layers, "
            f"{self.total_params / 1e6:.1f}M local params, "
            f"batch {self.batch_per_npu}/NPU",
            f"  fwd {self.total_fwd_flops / 1e12:.2f} TFLOPs, "
            f"bwd {self.total_bwd_flops / 1e12:.2f} TFLOPs per NPU",
        ]
        if topology is not None:
            lines.append(f"  parallelism: {self.plan(topology).description}")
        if self.notes:
            lines.append(f"  {self.notes}")
        return "\n".join(lines)
