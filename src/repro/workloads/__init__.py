"""DNN workload models (paper Sec. 5.2) and the workload registry."""

from ..errors import WorkloadError
from ..registry import Registry
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

#: Workload factories by (case-insensitive) key, aliases included, sorted.
#: ``get_workload`` forwards keyword arguments to the factory (e.g.
#: ``get_workload("flood", layers=1, param_mb=64)``), each read by its
#: parameter's declared type; one the factory does not take, or of another
#: type, raises :class:`WorkloadError`.
WORKLOADS: Registry[Workload] = Registry(
    "workload",
    {
        "dlrm": dlrm,
        "flood": flood,
        "gnmt": gnmt,
        "resnet-152": resnet152,
        "resnet152": resnet152,
        "transformer-1t": transformer_1t,
        "transformer1t": transformer_1t,
    },
    error=WorkloadError,
)
get_workload = WORKLOADS.build
workload_names = WORKLOADS.names
register_workload = WORKLOADS.register


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
