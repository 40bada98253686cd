"""DNN workload models (paper Sec. 5.2) and the workload registry."""

import inspect
from collections.abc import Callable

from .base import Workload
from .compute import A100_MEMORY_BW, A100_PEAK_FLOPS, ComputeModel
from .dlrm import dlrm
from .gnmt import gnmt
from .layers import (
    GRADIENT_BYTES,
    CommAttachment,
    Layer,
    total_flops,
    total_param_bytes,
)
from .parallelism import (
    CommScope,
    ParallelismPlan,
    data_parallel_plan,
    model_parallel_plan,
    split_leading_dims,
)
from .profile import CommComputeProfile, comm_compute_profile
from .resnet import resnet152
from .serialization import (
    layer_from_dict,
    layer_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from .synthetic import flood, flood_ladder
from .transformer import MP_GROUP_SIZE, transformer_1t

#: The paper's four evaluation workloads (Sec. 5.2), in Fig. 12 order.
PAPER_WORKLOADS = ("ResNet-152", "GNMT", "DLRM", "Transformer-1T")

_FACTORIES: dict[str, Callable[..., Workload]] = {
    "resnet-152": resnet152,
    "resnet152": resnet152,
    "gnmt": gnmt,
    "dlrm": dlrm,
    "transformer-1t": transformer_1t,
    "transformer1t": transformer_1t,
    "flood": flood,
}


def get_workload(name: str, **kwargs) -> Workload:
    """Instantiate a registered workload by name (case-insensitive).

    ``kwargs`` are forwarded to the factory (e.g.
    ``get_workload("transformer-1t", num_layers=8)`` or
    ``get_workload("flood", layers=1, param_mb=64)``); ones the factory
    does not take raise :class:`WorkloadError`.
    """
    from ..errors import WorkloadError

    key = name.strip().lower()
    if key not in _FACTORIES:
        known = ", ".join(workload_names())
        raise WorkloadError(f"unknown workload {name!r}; known: {known}")
    factory = _FACTORIES[key]
    try:
        inspect.signature(factory).bind(**kwargs)
    except TypeError as error:
        raise WorkloadError(f"workload {name!r}: {error}") from None
    return factory(**kwargs)


def workload_names() -> tuple[str, ...]:
    """All registered workload keys (aliases included), sorted."""
    return tuple(sorted(set(_FACTORIES)))


def register_workload(name: str, factory: Callable[..., Workload]) -> None:
    """Register a custom workload factory under a (case-insensitive) name.

    The name becomes valid wherever workloads are chosen by key: cluster
    :class:`~repro.cluster.JobSpec`, scenario specs, and CLI ``--workload``
    flags.
    """
    from ..errors import WorkloadError

    key = name.strip().lower()
    if not key:
        raise WorkloadError("workload name must be non-empty")
    if key in _FACTORIES:
        raise WorkloadError(f"workload {name!r} is already registered")
    _FACTORIES[key] = factory


__all__ = [
    "Workload",
    "Layer",
    "CommAttachment",
    "GRADIENT_BYTES",
    "total_flops",
    "total_param_bytes",
    "ComputeModel",
    "A100_PEAK_FLOPS",
    "A100_MEMORY_BW",
    "CommScope",
    "ParallelismPlan",
    "data_parallel_plan",
    "model_parallel_plan",
    "split_leading_dims",
    "resnet152",
    "gnmt",
    "dlrm",
    "transformer_1t",
    "flood",
    "flood_ladder",
    "MP_GROUP_SIZE",
    "PAPER_WORKLOADS",
    "get_workload",
    "workload_names",
    "register_workload",
    "CommComputeProfile",
    "comm_compute_profile",
    "layer_to_dict",
    "layer_from_dict",
    "workload_to_dict",
    "workload_from_dict",
]
