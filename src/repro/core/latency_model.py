"""The Latency Model component (paper Fig. 6 / Sec. 4.4).

"The Latency Model is a function that inputs chunk size, network dimension,
and chunk operation (RS/AG), and returns the predicted runtime for that
chunk operation running on the specific dimension."

Two kinds of predictions are exposed:

* :meth:`LatencyModel.chunk_load` — the *load* contribution used by the
  scheduler: only the bandwidth term ``n_K x B_K``, per Sec. 4.4 ("Since
  N_K only participates with B_K, the Latency Model only considers
  n_K x B_K as the latency of chunk #i on dimK").
* :meth:`LatencyModel.op_time` — the full op latency ``A_K + n_K x B_K``
  used by the executor and by the consistency pre-simulation.

Because both A_K and B_K can be measured offline and replicated on every
NPU, an identical model on all NPUs yields identical schedules —
inter-dimension schedule consistency (Sec. 4.6.1).
"""

from __future__ import annotations

from ..collectives.base import CollectiveAlgorithm
from ..collectives.phases import Stage, phase_ops
from ..collectives.registry import algorithms_for_topology
from ..collectives.types import CollectiveType, PhaseOp
from ..errors import CollectiveError
from ..numeric import ordered_sum
from ..topology import Topology


class LatencyModel:
    """Analytical per-dimension chunk-op latency predictor.

    Binds a topology to one collective algorithm per dimension (Table 1
    defaults unless overridden) and evaluates the Sec. 4.4 cost model.
    """

    def __init__(
        self,
        topology: Topology,
        algorithms: tuple[CollectiveAlgorithm, ...] | None = None,
    ) -> None:
        self.topology = topology
        self.algorithms = algorithms or algorithms_for_topology(topology)
        if len(self.algorithms) != topology.ndims:
            raise CollectiveError(
                f"need {topology.ndims} algorithms, got {len(self.algorithms)}"
            )
        # Per-(op, size, dim) memo: the algorithms are pure analytical
        # formulas and training loops resubmit identical collectives every
        # iteration, so the same lookups recur millions of times on the
        # simulation hot path.  One dict serves the three base predictions
        # (the key leads with the method tag); op_time composes two of them.
        self._memo: dict[tuple, float] = {}

    # --- per-op predictions ------------------------------------------------
    def bytes_per_npu(self, op: PhaseOp, stage_size: float, dim_index: int) -> float:
        """Bytes one NPU sends into ``dim_index`` for this op (``n_K``)."""
        key = ("bytes", op, stage_size, dim_index)
        value = self._memo.get(key)
        if value is None:
            dim = self.topology.dims[dim_index]
            value = self.algorithms[dim_index].bytes_per_npu(op, stage_size, dim.size)
            self._memo[key] = value
        return value

    def chunk_load(self, op: PhaseOp, stage_size: float, dim_index: int) -> float:
        """Scheduler-visible load: the bandwidth term ``n_K x B_K`` only."""
        key = ("load", op, stage_size, dim_index)
        value = self._memo.get(key)
        if value is None:
            dim = self.topology.dims[dim_index]
            value = self.algorithms[dim_index].transfer_time(op, stage_size, dim)
            self._memo[key] = value
        return value

    def fixed_latency(self, op: PhaseOp, dim_index: int) -> float:
        """Fixed delay ``A_K = steps x step_latency`` for this op."""
        key = ("fixed", op, dim_index)
        value = self._memo.get(key)
        if value is None:
            dim = self.topology.dims[dim_index]
            value = self.algorithms[dim_index].fixed_latency(op, dim)
            self._memo[key] = value
        return value

    def op_time(self, op: PhaseOp, stage_size: float, dim_index: int) -> float:
        """Full op latency ``A_K + n_K x B_K``."""
        return self.fixed_latency(op, dim_index) + self.chunk_load(
            op, stage_size, dim_index
        )

    # --- aggregates used by the scheduler -----------------------------------
    def collective_fixed_latency(self, ctype: CollectiveType, dim_index: int) -> float:
        """Total fixed delay a dimension pays for one pass of ``ctype``.

        The Dim Load Tracker initializes each dimension's load to its A_K
        for the target collective type (Sec. 4.4); All-Reduce visits every
        dimension once for RS and once for AG.
        """
        ops = {
            CollectiveType.ALL_REDUCE: (PhaseOp.RS, PhaseOp.AG),
            CollectiveType.REDUCE_SCATTER: (PhaseOp.RS,),
            CollectiveType.ALL_GATHER: (PhaseOp.AG,),
            CollectiveType.ALL_TO_ALL: (PhaseOp.A2A,),
        }[ctype]
        return ordered_sum(self.fixed_latency(op, dim_index) for op in ops)

    def stage_loads(self, stages: list[Stage] | tuple[Stage, ...]) -> list[float]:
        """Per-dimension load (bandwidth term) added by a chunk's stages.

        This is ``LatencyModel.calcLoads`` of Algorithm 1 (lines 28-29):
        given a sized stage list, return the additional load each dimension
        receives.
        """
        loads = [0.0] * self.topology.ndims
        for stage in stages:
            loads[stage.dim_index] += self.chunk_load(
                stage.op, stage.stage_size, stage.dim_index
            )
        return loads

    def single_phase_ops(self, ctype: CollectiveType) -> list[PhaseOp]:
        """The op sequence a chunk of ``ctype`` performs across dims."""
        return phase_ops(ctype, self.topology.ndims)
