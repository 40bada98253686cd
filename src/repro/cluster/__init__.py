"""Multi-job cluster simulation: concurrent training jobs on one network.

Extends the single-collective / single-job reproduction to the setting real
clusters face (CASSINI, Themis-fair): many jobs whose collectives contend
for the same network dimensions, with per-job scheduler choice, priorities,
communicator dim-subsets, Poisson (or explicit) arrival traces, pluggable
cluster-level fairness policies (weighted bandwidth shares, finish-time
fairness, priority preemption — see ``fairness``), and pluggable automatic
job placement (load-balanced bin-packing, CASSINI-style comm-phase
interleaving — see ``placement``).
"""

from .fairness import (
    FairnessPolicy,
    FifoSharing,
    FinishTimeFairness,
    PriorityPreemption,
    WeightedSharing,
    fairness_names,
    get_fairness,
    register_fairness,
)
from .jobs import (
    ARRIVAL_PROCESSES,
    JOB_SCHEDULERS,
    BoundedPareto,
    JobMix,
    JobSpec,
    derive_open_loop_rate,
    open_loop_trace,
    poisson_trace,
    stream_seed,
)
from .metrics import ClusterReport, JobOutcome, SteadyStateReport
from .placement import (
    AllDimsPlacement,
    InterleavedPlacement,
    LoadBalancedPlacement,
    ManualPlacement,
    PlacementPolicy,
    get_placement,
    placement_names,
    register_placement,
)
from .simulator import (
    ClusterConfig,
    ClusterSimulator,
    isolated_jct,
    mix_mean_service_time,
    run_cluster,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "JOB_SCHEDULERS",
    "JobSpec",
    "JobMix",
    "BoundedPareto",
    "poisson_trace",
    "open_loop_trace",
    "derive_open_loop_rate",
    "stream_seed",
    "JobOutcome",
    "ClusterReport",
    "SteadyStateReport",
    "mix_mean_service_time",
    "ClusterConfig",
    "ClusterSimulator",
    "isolated_jct",
    "run_cluster",
    "FairnessPolicy",
    "FifoSharing",
    "WeightedSharing",
    "FinishTimeFairness",
    "PriorityPreemption",
    "get_fairness",
    "fairness_names",
    "register_fairness",
    "PlacementPolicy",
    "ManualPlacement",
    "AllDimsPlacement",
    "LoadBalancedPlacement",
    "InterleavedPlacement",
    "get_placement",
    "placement_names",
    "register_placement",
]
