"""Intra-dimension chunk scheduling policies (paper Sec. 4.3).

When several chunk operations are simultaneously ready on one dimension,
the policy picks which runs next:

* **FIFO** — process in arrival order.  The paper's default for the baseline
  (where policies do not matter, since every chunk has the identical
  schedule) and for the Themis+FIFO configuration.
* **SCF** (Smallest-Chunk-First) — the paper's empirically best policy for
  Themis: small ops finish quickly and feed their chunk to the next
  dimension sooner, reducing dimension starvation.
* **LCF** (Largest-Chunk-First) — the adversarial mirror of SCF, included
  as an ablation to quantify how much intra-dimension ordering matters.

Policies order *ready* ops only; op readiness (previous stage completed) is
the executor's concern.

A dimension channel keeps its ready ops in a
:class:`~repro.core.ready_queue.ReadyQueue` heap keyed by the policy's
``sort_key``, so selection is O(log n).  :meth:`IntraDimPolicy.select`,
the linear ``min(sort_key)`` over a list, stays the policy's defining form
and the queue's reference in tests.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from ..errors import ConfigError
from ..registry import Registry
from .ready_queue import ReadyQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..sim.executor import OpState


class IntraDimPolicy(abc.ABC):
    """Selects the next ready chunk-op for a dimension channel."""

    name: str = "abstract"

    @abc.abstractmethod
    def sort_key(self, op: "OpState") -> tuple:
        """Total order over ready ops; the smallest key runs first."""

    def select(self, ready_ops: list["OpState"]) -> "OpState":
        """Pick the next op to execute from the non-empty ready list."""
        if not ready_ops:
            raise ConfigError("policy invoked with no ready ops")
        return min(ready_ops, key=self.sort_key)

    def select_from(
        self, queue: ReadyQueue, owner: str | None = None, idle_only: bool = False
    ) -> "OpState | None":
        """Best eligible op in ``queue`` under this policy, or ``None``.

        The queue is keyed by this policy's :meth:`sort_key`, so this is
        :meth:`ReadyQueue.select`; a dimension channel reads its queue
        directly on its hot path.
        """
        return queue.select(owner=owner, idle_only=idle_only)


class FifoPolicy(IntraDimPolicy):
    """First-in first-out by readiness time (ties: issue order, chunk id)."""

    name = "FIFO"

    def sort_key(self, op: "OpState") -> tuple:
        return (
            -op.priority,
            op.ready_time,
            op.collective_seq,
            op.chunk_id,
            op.stage_index,
        )


class SmallestChunkFirstPolicy(IntraDimPolicy):
    """Smallest stage first (paper's SCF); ties fall back to FIFO order."""

    name = "SCF"

    def sort_key(self, op: "OpState") -> tuple:
        return (
            -op.priority,
            op.stage.stage_size,
            op.ready_time,
            op.collective_seq,
            op.chunk_id,
            op.stage_index,
        )


class LargestChunkFirstPolicy(IntraDimPolicy):
    """Largest stage first — ablation counterpart of SCF."""

    name = "LCF"

    def sort_key(self, op: "OpState") -> tuple:
        return (
            -op.priority,
            -op.stage.stage_size,
            op.ready_time,
            op.collective_seq,
            op.chunk_id,
            op.stage_index,
        )


#: Intra-dimension policies by (case-insensitive) name, sorted.  A name
#: becomes valid wherever policies are chosen by key:
#: ``NetworkSimulator(policy=...)``, scenario specs, CLI flags.
POLICIES: Registry[IntraDimPolicy] = Registry(
    "intra-dimension policy",
    {
        "fifo": FifoPolicy,
        "lcf": LargestChunkFirstPolicy,
        "scf": SmallestChunkFirstPolicy,
    },
    error=ConfigError,
)
get_policy = POLICIES.build
policy_names = POLICIES.names
register_policy = POLICIES.register
