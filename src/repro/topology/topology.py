"""Multi-dimensional network topology (paper Fig. 1.a, Table 2).

A :class:`Topology` is an ordered list of :class:`DimensionSpec` objects,
dim1 first.  The total NPU count is the product of the dimension sizes.
Collectives may span all dimensions or any contiguous/arbitrary subset
(e.g. Transformer-1T's data-parallel All-Reduce uses only the last
dimension, Sec. 5.2), so the class supports *slicing* into sub-topologies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

from ..errors import TopologyError
from ..numeric import ordered_sum
from ..units import to_gbps
from .dimension import DimensionSpec


@dataclass(frozen=True)
class Topology:
    """An ordered, immutable collection of network dimensions.

    The paper's naming convention ``P1 x P2 x ... x PD`` maps directly onto
    ``dims[0].size x dims[1].size x ...``; dim1 (index 0) is the innermost,
    typically highest-bandwidth rail.
    """

    dims: tuple[DimensionSpec, ...]
    name: str = ""

    def __init__(self, dims: Sequence[DimensionSpec], name: str = "") -> None:
        if not dims:
            raise TopologyError("a topology needs at least one dimension")
        object.__setattr__(self, "dims", tuple(dims))
        object.__setattr__(self, "name", name or self._default_name())

    # --- basic shape ---------------------------------------------------
    @property
    def ndims(self) -> int:
        """Number of network dimensions ``D``."""
        return len(self.dims)

    @property
    def npus(self) -> int:
        """Total NPU count: the product of all dimension sizes."""
        return math.prod(d.size for d in self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        """Dimension sizes ``(P1, ..., PD)``."""
        return tuple(d.size for d in self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self) -> Iterator[DimensionSpec]:
        return iter(self.dims)

    def __getitem__(self, index: int) -> DimensionSpec:
        return self.dims[index]

    # --- bandwidth -------------------------------------------------------
    @property
    def bandwidths(self) -> tuple[float, ...]:
        """Aggregate per-NPU bandwidth of each dimension (bytes/second)."""
        return tuple(d.bandwidth for d in self.dims)

    @property
    def total_bandwidth(self) -> float:
        """Sum of aggregate per-NPU bandwidths across dimensions.

        This is the denominator of the paper's Ideal latency
        (``collective size / total BW``, Table 3).
        """
        return ordered_sum(self.bandwidths)

    def bw_share(self, dim_index: int) -> float:
        """Fraction of the total BW budget held by one dimension.

        These are the weights of the paper's *average BW utilization*
        definition (Sec. 3): dimensions with higher BW get higher weight.
        """
        return self.dims[dim_index].bandwidth / self.total_bandwidth

    # --- derived views ----------------------------------------------------
    def subset(self, dim_indices: Sequence[int], name: str = "") -> "Topology":
        """Build a sub-topology over a subset of dimensions.

        Collectives restricted to a communicator spanning only some network
        dimensions (model-parallel groups, ZeRO data-parallel groups on the
        last dimension, ...) run on the sub-topology; dimension indices map
        back through :meth:`parent_index`.
        """
        if not dim_indices:
            raise TopologyError("dimension subset cannot be empty")
        seen: set[int] = set()
        for index in dim_indices:
            if index < 0 or index >= self.ndims:
                raise TopologyError(
                    f"dimension index {index} out of range for {self.ndims}D topology"
                )
            if index in seen:
                raise TopologyError(f"duplicate dimension index {index}")
            seen.add(index)
        dims = tuple(self.dims[i] for i in dim_indices)
        sub = Topology(dims, name=name or f"{self.name}[{list(dim_indices)}]")
        # Constructor-style init of a brand-new frozen instance, never mutation
        # of one that escaped this method.
        object.__setattr__(  # replint: ignore[RPL006]
            sub, "_parent_indices", tuple(dim_indices)
        )
        return sub

    def communicator(
        self,
        dim_indices: Sequence[int],
        peer_counts: Sequence[int] | None = None,
        name: str = "",
    ) -> "Topology":
        """Build a communicator: a subset of dims with possibly fewer peers.

        Model-parallel groups often span only *part* of a physical dimension
        (e.g. a 128-NPU tensor-parallel group on a 16x64 platform uses all of
        dim1 and 8 of dim2's 64 peers).  ``peer_counts[i]`` replaces the
        participating peer count of ``dim_indices[i]``; it must be between 2
        and the dimension's physical size.  Bandwidth and latency are
        inherited from the physical dimension.
        """
        if peer_counts is None:
            return self.subset(dim_indices, name=name)
        if len(peer_counts) != len(dim_indices):
            raise TopologyError(
                f"{len(dim_indices)} dim indices but {len(peer_counts)} peer counts"
            )
        base = self.subset(dim_indices)
        dims = []
        for dim, count in zip(base.dims, peer_counts):
            if count < 2 or count > dim.size:
                raise TopologyError(
                    f"peer count {count} invalid for dimension of size {dim.size}"
                )
            from dataclasses import replace

            dims.append(replace(dim, size=count))
        comm = Topology(dims, name=name or f"{self.name}:comm{tuple(dim_indices)}")
        object.__setattr__(  # replint: ignore[RPL006]
            comm, "_parent_indices", tuple(dim_indices)
        )
        return comm

    def parent_index(self, local_index: int) -> int:
        """Map a sub-topology dimension index back to the parent topology."""
        parents = getattr(self, "_parent_indices", None)
        if parents is None:
            return local_index
        return parents[local_index]

    @property
    def parent_indices(self) -> tuple[int, ...]:
        """Parent-topology indices for each local dimension."""
        parents = getattr(self, "_parent_indices", None)
        if parents is None:
            return tuple(range(self.ndims))
        return parents

    def with_packet_model(
        self,
        max_packet_bytes: float | Sequence[float],
        packet_header_bytes: float | Sequence[float],
        name: str = "",
    ) -> "Topology":
        """Return a copy with the packet/goodput model on every dimension.

        Scalar arguments apply to all dimensions; sequences give one value
        per dimension (e.g. chiplet vs NIC packet formats, paper Sec. 6.1
        footnote 10).
        """
        packets = (
            [max_packet_bytes] * self.ndims
            if isinstance(max_packet_bytes, (int, float))
            else list(max_packet_bytes)
        )
        headers = (
            [packet_header_bytes] * self.ndims
            if isinstance(packet_header_bytes, (int, float))
            else list(packet_header_bytes)
        )
        if len(packets) != self.ndims or len(headers) != self.ndims:
            raise TopologyError(
                f"need {self.ndims} packet-model entries"
            )
        dims = tuple(
            d.with_packet_model(p, h)
            for d, p, h in zip(self.dims, packets, headers)
        )
        return Topology(dims, name=name or f"{self.name}+pkt")

    def with_bandwidths(self, factors: Sequence[float], name: str = "") -> "Topology":
        """Return a copy with per-dimension bandwidth scale factors applied."""
        if len(factors) != self.ndims:
            raise TopologyError(
                f"need {self.ndims} factors, got {len(factors)}"
            )
        dims = tuple(d.scaled(f) for d, f in zip(self.dims, factors))
        return Topology(dims, name=name or f"{self.name}*bw")

    # --- reporting ---------------------------------------------------------
    def _default_name(self) -> str:
        kinds = "_".join(d.kind.short_name for d in self.dims)
        return f"{len(self.dims)}D-{kinds}"

    def describe(self) -> str:
        """Multi-line, Table 2-style description of the topology."""
        shape = "x".join(str(p) for p in self.shape)
        lines = [f"{self.name}: {self.npus} NPUs, size {shape}"]
        for i, dim in enumerate(self.dims, start=1):
            lines.append(f"  dim{i}: {dim.describe()}")
        lines.append(f"  total BW/NPU: {to_gbps(self.total_bandwidth):.4g} Gb/s")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = "x".join(str(p) for p in self.shape)
        return f"Topology({self.name!r}, {shape})"
