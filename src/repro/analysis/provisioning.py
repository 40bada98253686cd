"""BW-distribution analysis for system designers (paper Sec. 6.3).

For any two dimensions dimK, dimL with K < L, compare ``BW(dimK)`` against
``P_K x P_{K+1} x ... x P_{L-1} x BW(dimL)``:

* **Just enough** — equality: the baseline schedule already balances stage
  latencies; no dynamic scheduling needed.
* **Over-provisioned** — ``BW(dimK)`` smaller: the baseline strands dimL
  bandwidth; Themis redistributes chunk loads and recovers it.
* **Under-provisioned** — ``BW(dimK)`` larger: no schedule can fully drive
  both dimensions; such design points "should be prohibited".

:func:`classify_topology` evaluates every adjacent pair;
:func:`assess` adds ``core.ideal.achievable_utilization``: how much of the
total BW budget *any* scheduler could use (via the exact fluid bound), which
is the actionable number for a network architect.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..collectives.types import CollectiveType
from ..core.ideal import achievable_utilization
from ..topology import Topology


class ProvisioningVerdict(enum.Enum):
    """Sec. 6.3's three BW-distribution scenarios (the per-pair verdict)."""

    JUST_ENOUGH = "JustEnough"
    OVER_PROVISIONED = "OverProvisioned"
    UNDER_PROVISIONED = "UnderProvisioned"


@dataclass(frozen=True)
class PairAssessment:
    """Provisioning verdict for one (dimK, dimL) pair.

    ``ratio`` is ``BW(dimK) / (prod(P_K..P_{L-1}) x BW(dimL))`` — 1.0 means
    just-enough, below 1.0 over-provisioned (dimL has spare BW the baseline
    cannot use), above 1.0 under-provisioned (dimL can never keep up).
    """

    dim_k: int
    dim_l: int
    ratio: float
    scenario: ProvisioningVerdict

    def describe(self) -> str:
        return (
            f"dim{self.dim_k + 1} vs dim{self.dim_l + 1}: "
            f"ratio {self.ratio:.3g} -> {self.scenario.value}"
        )


def classify_pair(
    topology: Topology, dim_k: int, dim_l: int, tolerance: float = 0.01
) -> PairAssessment:
    """Classify one ordered dimension pair per the Sec. 6.3 inequalities."""
    if not 0 <= dim_k < dim_l < topology.ndims:
        raise ValueError(f"need 0 <= K < L < D, got K={dim_k}, L={dim_l}")
    shrink = math.prod(topology.dims[i].size for i in range(dim_k, dim_l))
    bw_k = topology.dims[dim_k].bandwidth
    bw_l = topology.dims[dim_l].bandwidth
    ratio = bw_k / (shrink * bw_l)
    if abs(ratio - 1.0) <= tolerance:
        scenario = ProvisioningVerdict.JUST_ENOUGH
    elif ratio < 1.0:
        scenario = ProvisioningVerdict.OVER_PROVISIONED
    else:
        scenario = ProvisioningVerdict.UNDER_PROVISIONED
    return PairAssessment(dim_k=dim_k, dim_l=dim_l, ratio=ratio, scenario=scenario)


def classify_topology(
    topology: Topology, tolerance: float = 0.01
) -> list[PairAssessment]:
    """Assess every ordered dimension pair (K < L) of a topology."""
    return [
        classify_pair(topology, k, l, tolerance)
        for k in range(topology.ndims)
        for l in range(k + 1, topology.ndims)
    ]


@dataclass(frozen=True)
class ProvisioningReport:
    """Designer-facing summary: verdicts plus the drivable-BW bound."""

    topology_name: str
    assessments: tuple[PairAssessment, ...]
    max_utilization: float
    baseline_efficient: bool

    def describe(self) -> str:
        lines = [f"{self.topology_name}:"]
        for assessment in self.assessments:
            lines.append(f"  {assessment.describe()}")
        lines.append(
            f"  max drivable utilization (any scheduler): "
            f"{self.max_utilization:.1%}"
        )
        lines.append(
            "  baseline schedule sufficient"
            if self.baseline_efficient
            else "  dynamic scheduling (Themis) required for full utilization"
        )
        return "\n".join(lines)


def assess(
    topology: Topology,
    tolerance: float = 0.01,
    ctype: CollectiveType = CollectiveType.ALL_REDUCE,
) -> ProvisioningReport:
    """Full Sec. 6.3 assessment of one topology.

    ``ctype`` selects the collective whose fluid bound anchors the
    drivable-utilization number (All-Reduce, as in the paper, by default).
    """
    assessments = tuple(classify_topology(topology, tolerance))
    baseline_efficient = all(
        a.scenario is ProvisioningVerdict.JUST_ENOUGH
        for a in assessments
        if a.dim_l == a.dim_k + 1
    )
    return ProvisioningReport(
        topology_name=topology.name,
        assessments=assessments,
        max_utilization=achievable_utilization(ctype, topology),
        baseline_efficient=baseline_efficient,
    )
