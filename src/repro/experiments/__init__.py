"""Experiment harnesses regenerating every paper figure and table."""

from .cluster_contention import ClusterContentionResult, run_cluster_contention
from .degraded import (
    DEGRADED_SEVERITIES,
    DegradedComparisonResult,
    degraded_sweep,
    degraded_trace,
    run_degraded_comparison,
)
from .fairness import (
    FAIRNESS_VARIANTS,
    FairnessComparisonResult,
    run_fairness_comparison,
    skewed_trace,
)
from .fidelity import (
    FIDELITY_BACKENDS,
    FIDELITY_SCHEDULERS,
    FIDELITY_WORKLOADS,
    FidelityResult,
    fidelity_sweep,
    run_fidelity,
)
from .fig4 import Fig4Result, run_fig4
from .fluid_scale import (
    FLUID_SCALE_JOBS,
    FluidScaleResult,
    fluid_scale_spec,
    run_fluid_scale,
)
from .fig5 import Fig5Result, run_fig5
from .fig8 import Fig8Result, run_fig8
from .fig9 import Fig9Result, run_fig9
from .fig10 import Fig10Result, run_fig10
from .fig11 import Fig11Result, run_fig11
from .fig12 import Fig12Result, run_fig12
from .headline import PAPER_HEADLINES, HeadlineResult, headline_from, run_headline
from .placement import (
    PLACEMENT_VARIANTS,
    PlacementComparisonResult,
    placement_trace,
    run_placement_comparison,
)
from .steady_state import (
    RHO_GRID,
    SCHEDULER_VARIANTS,
    SteadyStateResult,
    run_steady_state,
    steady_state_sweep,
)

__all__ = [
    "run_fig4",
    "run_fig5",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_headline",
    "headline_from",
    "run_cluster_contention",
    "ClusterContentionResult",
    "run_fairness_comparison",
    "FairnessComparisonResult",
    "FAIRNESS_VARIANTS",
    "skewed_trace",
    "run_steady_state",
    "steady_state_sweep",
    "SteadyStateResult",
    "RHO_GRID",
    "SCHEDULER_VARIANTS",
    "run_placement_comparison",
    "PlacementComparisonResult",
    "PLACEMENT_VARIANTS",
    "placement_trace",
    "run_degraded_comparison",
    "DegradedComparisonResult",
    "DEGRADED_SEVERITIES",
    "degraded_sweep",
    "degraded_trace",
    "run_fidelity",
    "fidelity_sweep",
    "FidelityResult",
    "run_fluid_scale",
    "fluid_scale_spec",
    "FluidScaleResult",
    "FLUID_SCALE_JOBS",
    "FIDELITY_BACKENDS",
    "FIDELITY_SCHEDULERS",
    "FIDELITY_WORKLOADS",
    "Fig4Result",
    "Fig5Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Fig11Result",
    "Fig12Result",
    "HeadlineResult",
    "PAPER_HEADLINES",
]
