"""The Splitter component (paper Fig. 6, step 2).

"Splitter component simply divides the collective into multiple
equally-sized chunks."  The default chunks-per-collective in the paper is 64
(Sec. 5.3).  We also support a minimum chunk size so that tiny collectives
(small gradient buckets in real workloads) are not shredded into stages far
below a packet, which the paper notes hurts goodput (Sec. 6.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..numeric import is_count

#: Paper default (Sec. 5.3): "we set the number of chunks per collective to
#: be 64 in all our experiments for both the baseline and Themis."
DEFAULT_CHUNKS_PER_COLLECTIVE = 64


@dataclass(frozen=True)
class Splitter:
    """Divide a collective payload into equal chunks.

    Attributes
    ----------
    chunks_per_collective:
        Target chunk count ``CPC`` (Algorithm 1 input).
    min_chunk_size:
        If splitting to ``CPC`` chunks would make chunks smaller than this,
        the count is reduced (never below 1).  Set to 0 to always split to
        exactly ``CPC``.
    """

    chunks_per_collective: int = DEFAULT_CHUNKS_PER_COLLECTIVE
    min_chunk_size: float = 0.0

    def __post_init__(self) -> None:
        if not is_count(self.chunks_per_collective):
            raise ConfigError(
                "chunks per collective must be an integer >= 1, "
                f"got {self.chunks_per_collective!r}"
            )
        if not 0 <= self.min_chunk_size < math.inf:
            raise ConfigError(
                f"minimum chunk size must be >= 0, got {self.min_chunk_size}"
            )

    def chunk_count(self, collective_size: float) -> int:
        """Number of chunks for a collective of ``collective_size`` bytes."""
        if collective_size <= 0:
            raise ConfigError(
                f"collective size must be positive, got {collective_size}"
            )
        count = self.chunks_per_collective
        if self.min_chunk_size > 0:
            affordable = max(1, int(collective_size // self.min_chunk_size))
            count = min(count, affordable)
        return count

    def split(self, collective_size: float) -> list[float]:
        """Equal chunk sizes whose sum is exactly ``collective_size``."""
        count = self.chunk_count(collective_size)
        return [collective_size / count] * count
