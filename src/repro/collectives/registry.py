"""Topology-aware algorithm selection (paper Table 1).

Communication libraries pick the collective algorithm per dimension based on
the physical topology (Sec. 2.2): rings run the ring schedule, fully
connected dimensions run the one-step direct exchange, and switch dimensions
run halving-doubling.  The registry reproduces that mapping and allows
callers to register custom algorithms (e.g. the tree ablation, or an
in-network-offload model per Sec. 4.5).
"""

from __future__ import annotations

from ..errors import CollectiveError
from ..registry import Registry
from ..topology import DimensionKind, DimensionSpec, Topology
from .base import CollectiveAlgorithm
from .direct import DirectAlgorithm
from .halving_doubling import HalvingDoublingAlgorithm
from .offload import SwitchOffloadAlgorithm
from .ring import RingAlgorithm
from .tree import TreeAlgorithm

#: Per-dimension algorithms by (case-sensitive) name.
ALGORITHMS: Registry[CollectiveAlgorithm] = Registry(
    "algorithm",
    {
        "Ring": RingAlgorithm,
        "Direct": DirectAlgorithm,
        "HalvingDoubling": HalvingDoublingAlgorithm,
        "Tree": TreeAlgorithm,
        "SwitchOffload": SwitchOffloadAlgorithm,
    },
    error=CollectiveError,
    casefold=False,
)
get_algorithm = ALGORITHMS.build
algorithm_names = ALGORITHMS.names
register_algorithm = ALGORITHMS.register

#: Table 1: physical dimension kind -> contention-free collective algorithm.
DEFAULT_KIND_ALGORITHMS: dict[DimensionKind, str] = {
    DimensionKind.RING: "Ring",
    DimensionKind.FULLY_CONNECTED: "Direct",
    DimensionKind.SWITCH: "HalvingDoubling",
}


def algorithm_for_dimension(dim: DimensionSpec) -> CollectiveAlgorithm:
    """Pick the Table 1 algorithm for one dimension's physical kind."""
    return get_algorithm(DEFAULT_KIND_ALGORITHMS[dim.kind])


def algorithms_for_topology(
    topology: Topology,
    overrides: dict[int, str] | None = None,
) -> tuple[CollectiveAlgorithm, ...]:
    """Resolve one algorithm per dimension, honouring per-index overrides.

    ``overrides`` maps dimension index -> algorithm name and exists for
    ablation studies; by default every dimension gets its topology-aware
    choice, exactly as the paper's collective scheduler does (Sec. 2.3).
    """
    overrides = overrides or {}
    for index in overrides:
        if index < 0 or index >= topology.ndims:
            raise CollectiveError(
                f"override index {index} out of range for {topology.ndims}D topology"
            )
    return tuple(
        get_algorithm(overrides[i]) if i in overrides else algorithm_for_dimension(dim)
        for i, dim in enumerate(topology.dims)
    )
