"""Comm/compute profiles of workloads: the placement layer's job model.

CASSINI-style placement (``repro.cluster.placement``) reasons about a job
as an alternating compute / communication process: during each training
iteration the NPU computes for some time, and the network carries the job's
collectives for some (possibly overlapped) time.  The fraction of an
iteration the job keeps the network busy — its **communication duty
cycle** — decides whether two jobs sharing a dimension collide (both comm-
heavy: their phases fight for the wire) or interleave (one computes while
the other communicates).

:func:`comm_compute_profile` derives that model analytically from the
workload description, without simulating:

* *compute seconds* — the roofline time of one iteration's forward plus
  backward passes (same :class:`ComputeModel` the training simulator uses);
* *comm bytes* — the per-NPU wire bytes one iteration must move: the
  data-parallel gradient synchronization (All-Reduce moves ``~2x`` the
  parameter bytes; ZeRO-2's Reduce-Scatter + All-Gather moves the same
  total) plus any per-layer comm attachments (embedding All-to-Alls,
  model-parallel activation All-Reduces).

Both are *estimates* for placement scoring — chunking, scheduling, fusion,
and contention shift the real numbers — but the duty-cycle ordering across
jobs (which is all placement needs) is robust to those effects.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..numeric import ordered_sum
from .base import Workload
from .compute import ComputeModel


@dataclass(frozen=True)
class CommComputeProfile:
    """One iteration of a workload as compute seconds + comm bytes."""

    workload_name: str
    compute_seconds: float
    comm_bytes: float

    def comm_seconds(self, bandwidth: float) -> float:
        """Estimated seconds to move the iteration's bytes at ``bandwidth``."""
        if bandwidth <= 0:
            raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
        return self.comm_bytes / bandwidth

    def duty_cycle(self, bandwidth: float) -> float:
        """Fraction of an iteration the job keeps the network busy.

        ``comm / (comm + compute)`` under the no-overlap approximation:
        close to 1.0 for a comm-bound job (its collectives always have work
        for the wire), close to 0.0 for a compute-bound one.  Two jobs
        whose duty cycles sum to <= 1 can in principle interleave on one
        dimension without slowing each other down — the CASSINI insight.
        """
        comm = self.comm_seconds(bandwidth)
        total = comm + self.compute_seconds
        if total <= 0:
            return 0.0
        return comm / total


def comm_compute_profile(
    workload: Workload, compute: ComputeModel | None = None
) -> CommComputeProfile:
    """Analytic comm/compute profile of one training iteration.

    The gradient-synchronization volume uses the large-group limit of the
    All-Reduce cost, ``2 x (P-1)/P ~= 2`` bytes on the wire per parameter
    byte, which is also the ZeRO-2 RS+AG total — so the estimate does not
    depend on the (placement-time unknown) communicator sizes.
    """
    model = compute or ComputeModel()
    compute_seconds = ordered_sum(
        model.time_for(layer.fwd_flops, layer.fwd_mem_bytes)
        + model.time_for(layer.bwd_flops, layer.bwd_mem_bytes)
        for layer in workload.layers
    )
    comm_bytes = 2.0 * workload.total_param_bytes
    for layer in workload.layers:
        for attachment in (layer.fwd_comm, layer.bwd_comm):
            if attachment is not None:
                comm_bytes += attachment.size
    return CommComputeProfile(
        workload_name=workload.name,
        compute_seconds=compute_seconds,
        comm_bytes=comm_bytes,
    )
