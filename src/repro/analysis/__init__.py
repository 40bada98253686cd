"""Analysis utilities: provisioning insights, microbenchmark records, tables."""

from .provisioning import (
    PairAssessment,
    ProvisioningReport,
    ProvisioningVerdict,
    assess,
    classify_pair,
    classify_topology,
)
from .sweep import MicrobenchRecord, geometric_mean
from .tables import format_table, ms, pct, ratio, us

__all__ = [
    "ProvisioningVerdict",
    "PairAssessment",
    "ProvisioningReport",
    "assess",
    "classify_pair",
    "classify_topology",
    "MicrobenchRecord",
    "geometric_mean",
    "format_table",
    "pct",
    "ratio",
    "ms",
    "us",
]
