"""Discrete-event network simulation substrate."""

from .audit import InvariantAuditor, InvariantViolation, audit_from_env, resolve_audit
from .backends import (
    DEFAULT_BACKEND,
    NetworkBackend,
    PacketNetwork,
    PacketOptions,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_key,
)
from .backends.ideal import IdealNetwork
from .engine import EventHandle, EventQueue, times_close
from .executor import ChannelStats, DimensionChannel, FusionConfig, OpState
from .faults import (
    MIN_CAPACITY_FACTOR,
    FaultSchedule,
    JobFaultPolicy,
    LinkFault,
    ScaledLatencyModel,
    compose_factors,
    fault_substream,
)
from .network import CollectiveResult, ExecutionResult, NetworkSimulator
from .stats import (
    UtilizationReport,
    activity_rate_series,
    bw_utilization,
    dimension_activity_rates,
    mean_activity_rate,
)
from .timeline import Interval, OpRecord, merge_intervals, render_gantt, total_length

__all__ = [
    "EventQueue",
    "EventHandle",
    "times_close",
    "InvariantAuditor",
    "InvariantViolation",
    "audit_from_env",
    "resolve_audit",
    "FusionConfig",
    "OpState",
    "DimensionChannel",
    "ChannelStats",
    "LinkFault",
    "FaultSchedule",
    "JobFaultPolicy",
    "ScaledLatencyModel",
    "MIN_CAPACITY_FACTOR",
    "compose_factors",
    "fault_substream",
    "NetworkSimulator",
    "IdealNetwork",
    "CollectiveResult",
    "ExecutionResult",
    "NetworkBackend",
    "PacketNetwork",
    "PacketOptions",
    "DEFAULT_BACKEND",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend_key",
    "UtilizationReport",
    "bw_utilization",
    "activity_rate_series",
    "dimension_activity_rates",
    "mean_activity_rate",
    "Interval",
    "OpRecord",
    "merge_intervals",
    "total_length",
    "render_gantt",
]
