"""Ideal (100%-utilization) reference models (paper Table 3 / Sec. 6.3).

The paper's *Ideal* method "assumes 100% BW is utilized. Communication
latency is simply calculated by (collective size / total BW)".  With the
invariant-bytes lemma (see ``collectives.phases``), the bytes every NPU must
send are schedule-invariant, so the Ideal latency is exactly::

    T_ideal = invariant_bytes_per_npu / sum_K BW_K

This is achievable only when chunk loads can actually be balanced across
dimensions; in the *UnderProvisioned* scenario of Sec. 6.3 no schedule can
fully drive every dimension.  :class:`LpIdealEstimator` computes the exact
fluid lower bound over every mix of the ``D!`` dimension orders in closed
form: the largest ratio, over sets of dimensions, of the fewest bytes any
order puts on the set to the set's bandwidth.  The gap between the two
estimators is precisely the utilization the BW distribution leaves
unreachable.
"""

from __future__ import annotations

import itertools

from ..collectives.phases import invariant_bytes_per_npu, stage_bytes_fraction
from ..collectives.types import CollectiveType
from ..errors import CollectiveError
from ..numeric import ordered_sum
from ..topology import Topology


class IdealEstimator:
    """Table 3 Ideal: ``invariant bytes / total BW`` (100% utilization).

    For All-to-All the sum-of-BW bound is unachievable by *any* schedule:
    A2A stage sizes do not shrink across dimensions, so every dimension K
    must carry ``size x (P_K - 1)/P_K`` regardless of chunk ordering — the
    tight bound is the bottleneck dimension, and that is what we return.
    """

    name = "Ideal"

    def collective_time(
        self, ctype: CollectiveType, size: float, topology: Topology
    ) -> float:
        """Lower-bound latency assuming every dimension transfers at full BW."""
        if ctype is CollectiveType.ALL_TO_ALL:
            return max(
                size * (dim.size - 1) / dim.size / dim.bandwidth
                for dim in topology.dims
            )
        total_bytes = invariant_bytes_per_npu(ctype, size, topology)
        return total_bytes / topology.total_bandwidth


class LpIdealEstimator:
    """Exact fluid bound: the LP optimum over all D! chunk dimension-orders.

    The LP routes a share of the collective through each dimension order
    and minimizes the makespan ``T`` that caps every dimension's transfer
    time.  Its optimum has a closed form::

        T = size x max over nonempty dimension sets U of least_bytes(U) / BW(U)

    where ``least_bytes(U)`` is the fewest bytes (per unit size) any order
    puts on the dimensions in ``U`` and ``BW(U)`` is their summed bandwidth.

    Why it is exact (``V`` is the set of all dimensions):

    * An order's RS bytes (``stage_bytes_fraction``) form the greedy vertex
      of the base polytope of ``f(S) = 1 - prod_{k in S} 1/P_k``; ``f`` is
      submodular (the telescoping lemma in ``collectives.phases``).  Every
      point of that polytope is a mix of greedy vertices, i.e. of orders.
    * All-Reduce is 2x RS (its AG mirrors the RS order); AG is ``P_total``
      x RS with the order reversed; A2A bytes do not depend on the order.
    * A mix of orders with makespan ``T`` exists exactly when
      ``f(V) - f(V - U) <= T x BW(U)`` for every ``U`` (Edmonds' polymatroid
      intersection with the box ``x_k <= T x BW_k``).
    * ``f(V) - f(V - U)`` is the bytes ``U`` carries when it goes last.  So
      ``U`` last is least for RS and All-Reduce, ``U`` first is least for
      AG, and the smaller of those two orders needs no branch on the type.
    * ``U = V`` is Table 3's Ideal (for A2A the Ideal is the worst single
      dimension, also a candidate ``U``), so the bound is never below it.
    """

    name = "LP-Ideal"

    def collective_time(
        self, ctype: CollectiveType, size: float, topology: Topology
    ) -> float:
        """The fluid-optimal makespan (bandwidth terms only)."""
        if size <= 0:
            raise CollectiveError(f"collective size must be positive, got {size}")
        dims = range(topology.ndims)
        bandwidths = topology.bandwidths
        worst = 0.0
        for count in range(1, topology.ndims + 1):
            for subset in itertools.combinations(dims, count):
                rest = tuple(k for k in dims if k not in subset)
                least = min(
                    ordered_sum(fractions[k] for k in subset)
                    for fractions in (
                        stage_bytes_fraction(ctype, rest + subset, topology),
                        stage_bytes_fraction(ctype, subset + rest, topology),
                    )
                )
                worst = max(worst, least / ordered_sum(bandwidths[k] for k in subset))
        return size * worst


def achievable_utilization(ctype: CollectiveType, topology: Topology) -> float:
    """Best average BW utilization any scheduler could reach (Sec. 6.3).

    The ratio of the 100%-utilization Ideal time to the fluid-optimal
    makespan: 1.0 when the BW distribution is balanced or over-provisioned,
    below 1.0 when some dimension is under-provisioned.  Both times scale
    linearly with the size, so the ratio is taken at unit size.
    """
    ideal = IdealEstimator().collective_time(ctype, 1.0, topology)
    fluid = LpIdealEstimator().collective_time(ctype, 1.0, topology)
    return min(1.0, ideal / fluid)
