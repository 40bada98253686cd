"""Themis core: splitter, load tracker, latency model, schedulers, ideal."""

from .chunk import (
    ChunkPlan,
    CollectivePlan,
    build_chunk_plan,
    validate_collective_plan,
)
from .consistency import presimulate_intra_dim_orders, verify_intra_dim_consistency
from .exhaustive import DEFAULT_SEARCH_CAP, ExhaustiveScheduler, SearchOutcome
from .ideal import IdealEstimator, LpIdealEstimator, achievable_utilization
from .latency_model import LatencyModel
from .load_tracker import DimLoadTracker
from .policies import (
    FifoPolicy,
    IntraDimPolicy,
    LargestChunkFirstPolicy,
    SmallestChunkFirstPolicy,
    get_policy,
    policy_names,
    register_policy,
)
from .ready_queue import ReadyQueue
from .scheduler import (
    DEFAULT_THRESHOLD_DIVISOR,
    BaselineScheduler,
    CollectiveScheduler,
    SchedulerFactory,
    ThemisScheduler,
    baseline_dim_order,
)
from .splitter import DEFAULT_CHUNKS_PER_COLLECTIVE, Splitter

__all__ = [
    "ChunkPlan",
    "CollectivePlan",
    "build_chunk_plan",
    "validate_collective_plan",
    "Splitter",
    "DEFAULT_CHUNKS_PER_COLLECTIVE",
    "LatencyModel",
    "DimLoadTracker",
    "CollectiveScheduler",
    "BaselineScheduler",
    "ThemisScheduler",
    "SchedulerFactory",
    "baseline_dim_order",
    "DEFAULT_THRESHOLD_DIVISOR",
    "IntraDimPolicy",
    "FifoPolicy",
    "SmallestChunkFirstPolicy",
    "LargestChunkFirstPolicy",
    "get_policy",
    "policy_names",
    "register_policy",
    "ReadyQueue",
    "IdealEstimator",
    "LpIdealEstimator",
    "achievable_utilization",
    "presimulate_intra_dim_orders",
    "ExhaustiveScheduler",
    "SearchOutcome",
    "DEFAULT_SEARCH_CAP",
    "verify_intra_dim_consistency",
]
