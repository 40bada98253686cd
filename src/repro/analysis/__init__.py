"""Analysis utilities: utilization, provisioning insights, sweeps, tables."""

from .provisioning import (
    PairAssessment,
    ProvisioningReport,
    ProvisioningVerdict,
    assess,
    classify_pair,
    classify_topology,
    max_drivable_utilization,
)
from .sweep import (
    PAPER_SCHEDULERS,
    MicrobenchRecord,
    SchedulerConfig,
    geometric_mean,
    run_collective,
    sweep,
)
from .tables import format_table, ms, pct, ratio, us

__all__ = [
    "ProvisioningVerdict",
    "PairAssessment",
    "ProvisioningReport",
    "assess",
    "classify_pair",
    "classify_topology",
    "max_drivable_utilization",
    "SchedulerConfig",
    "MicrobenchRecord",
    "PAPER_SCHEDULERS",
    "run_collective",
    "sweep",
    "geometric_mean",
    "format_table",
    "pct",
    "ratio",
    "ms",
    "us",
]
