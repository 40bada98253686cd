"""The Dim Load Tracker component (paper Fig. 6 / Algorithm 1).

"Dim Load Tracker maintains the load of each network dimension in terms of
the total communication time of the chunks when executing on that
dimension."  It is reset at the start of every collective (Algorithm 1
line 2), seeding each dimension with its fixed delay ``A_K`` for the target
collective type (Sec. 4.4), and is increased as each chunk is scheduled
(line 30).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..collectives.types import CollectiveType
from ..errors import ScheduleError
from .latency_model import LatencyModel


class DimLoadTracker:
    """Per-dimension accumulated communication-time loads."""

    def __init__(self, latency_model: LatencyModel) -> None:
        self._model = latency_model
        self._loads: list[float] = [0.0] * latency_model.topology.ndims
        self._resets = 0

    @property
    def ndims(self) -> int:
        return len(self._loads)

    def reset(self, ctype: CollectiveType) -> None:
        """Re-seed loads with each dimension's fixed delay for ``ctype``."""
        self._loads = [
            self._model.collective_fixed_latency(ctype, i) for i in range(self.ndims)
        ]
        self._resets += 1

    def get_loads(self) -> list[float]:
        """Current loads (a copy; mutating it does not affect the tracker)."""
        return list(self._loads)

    def update(self, additional: Sequence[float]) -> None:
        """Add a newly scheduled chunk's per-dimension loads (line 30)."""
        if len(additional) != self.ndims:
            raise ScheduleError(
                f"expected {self.ndims} load entries, got {len(additional)}"
            )
        for value in additional:
            if value < 0:
                raise ScheduleError(f"load increments must be >= 0, got {value}")
        self._loads = [a + b for a, b in zip(self._loads, additional)]

    # --- queries used by the scheduler -------------------------------------
    @property
    def max_load(self) -> float:
        return max(self._loads)

    @property
    def min_load(self) -> float:
        return min(self._loads)

    @property
    def load_gap(self) -> float:
        """``max_dim_load - min_dim_load`` (Algorithm 1 line 19)."""
        return self.max_load - self.min_load

    @property
    def min_load_dim(self) -> int:
        """Index of the least-loaded dimension (threshold reference dim)."""
        return min(range(self.ndims), key=lambda i: (self._loads[i], i))

    def ascending_order(self) -> tuple[int, ...]:
        """Dimension indices sorted least-loaded first (RS schedule).

        Ties break toward lower dimension index, so an all-equal tracker
        yields the baseline RS order dim1..dimD.
        """
        return tuple(sorted(range(self.ndims), key=lambda i: (self._loads[i], i)))

    def descending_order(self) -> tuple[int, ...]:
        """Dimension indices sorted most-loaded first (AG schedule).

        Ties break toward *higher* dimension index, so an all-equal tracker
        yields the baseline AG order dimD..dim1.
        """
        return tuple(
            sorted(range(self.ndims), key=lambda i: (-self._loads[i], -i))
        )
