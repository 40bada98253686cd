"""Bounded-memory aggregation for open-loop cluster runs.

A steady-state run sees tens of thousands of job completions; keeping
every per-job record alive defeats the point of job departure.  This
module provides the two streaming accumulators the cluster layer uses:

* :class:`StreamingStats` — count / mean / min / max / sum-of-squares in
  O(1) memory, plus a seeded fixed-size reservoir (Vitter's algorithm R)
  for percentile estimates.  The reservoir RNG is seeded at construction,
  so identical ingestion orders produce identical percentile estimates —
  the determinism contract every report in this repo honors.
* :class:`EpochAccumulator` — per-epoch means over a measurement window
  (the convergence series behind the stationarity flag).

Both are pure consumers: they never schedule events or touch simulator
state, so attaching them cannot perturb a timeline.
"""

from __future__ import annotations

import random

from ..errors import ConfigError
from ..numeric import ordered_sum

#: Default reservoir size: percentile error ~1/sqrt(4096) is far below the
#: tolerances any statistical check in this repo uses.
DEFAULT_RESERVOIR = 4096


class StreamingStats:
    """Streaming count/mean/extrema/variance plus reservoir percentiles."""

    def __init__(
        self, reservoir_size: int = DEFAULT_RESERVOIR, seed: int = 0
    ) -> None:
        if reservoir_size < 1:
            raise ConfigError(
                f"reservoir size must be >= 1, got {reservoir_size}"
            )
        self._rng = random.Random(seed)
        self._size = reservoir_size
        self._reservoir: list[float] = []
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._reservoir) < self._size:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._size:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    @property
    def jain_index(self) -> float | None:
        """Jain's fairness index over *all* ingested values (exact).

        Uses the running sums, not the reservoir, so it stays exact past
        the reservoir cap.
        """
        if not self.count or self.total_sq <= 0:
            return None
        return (self.total * self.total) / (self.count * self.total_sq)

    def percentile(self, q: float) -> float | None:
        """Linear-interpolated percentile estimate from the reservoir.

        Exact while ingestion stays under the reservoir size; an unbiased
        sample estimate beyond it.  ``None`` before any ingestion — never
        NaN, so zero-job measurement windows render cleanly.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"percentile must be in [0, 1], got {q}")
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        frac = position - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    def summary(self) -> dict:
        """JSON-plain digest (``None`` fields when nothing was ingested)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class EpochAccumulator:
    """Per-epoch means of a metric over ``[window_start, window_end]``."""

    def __init__(self, window_start: float, window_end: float, epochs: int) -> None:
        if epochs < 1:
            raise ConfigError(f"need >= 1 epochs, got {epochs}")
        if not window_end > window_start:
            raise ConfigError(
                f"need window_end > window_start, got "
                f"[{window_start}, {window_end}]"
            )
        self.window_start = window_start
        self.window_end = window_end
        self.epochs = epochs
        self._length = (window_end - window_start) / epochs
        self._totals = [0.0] * epochs
        self._counts = [0] * epochs

    def add(self, time: float, value: float) -> None:
        """Credit ``value`` to the epoch containing ``time`` (clamped)."""
        index = int((time - self.window_start) / self._length)
        index = max(0, min(self.epochs - 1, index))
        self._totals[index] += value
        self._counts[index] += 1

    def series(self) -> tuple[float | None, ...]:
        """Per-epoch means; ``None`` for epochs that saw no samples."""
        return tuple(
            total / count if count else None
            for total, count in zip(self._totals, self._counts)
        )

    def counts(self) -> tuple[int, ...]:
        return tuple(self._counts)

    def stationary(self, rtol: float = 0.25) -> bool | None:
        """First-half vs second-half mean comparison of the epoch series.

        ``True`` when both halves have samples and their means agree within
        relative tolerance ``rtol`` — a deliberately simple stationarity
        proxy (a drifting warm-up transient fails it; a converged run
        passes).  ``None`` when fewer than four epochs carry samples, i.e.
        there is not enough signal to judge either way.
        """
        values = [v for v in self.series() if v is not None]
        if len(values) < 4:
            return None
        half = len(values) // 2
        first = ordered_sum(values[:half]) / half
        second = ordered_sum(values[half:]) / (len(values) - half)
        scale = max(abs(first), abs(second))
        if scale <= 0:
            return True
        return abs(second - first) <= rtol * scale
