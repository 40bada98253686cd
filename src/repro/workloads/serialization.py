"""Workload (de)serialization to plain dicts / JSON.

Scenario specs (``repro.api``) reference workloads by registry key when
possible, but custom workloads — hand-built layer stacks in tests, tenant
shapes no factory produces — must survive a spec's JSON round trip too.
These converters are lossless: ``workload_from_dict(workload_to_dict(w))``
compares equal to ``w`` for any valid :class:`Workload`.
"""

from __future__ import annotations

from ..errors import WorkloadError
from ..typed import read
from .base import Workload
from .layers import CommAttachment, Layer


def _comm_to_dict(comm: CommAttachment) -> dict:
    return {
        "ctype": comm.ctype.value,
        "size": comm.size,
        "blocking": comm.blocking,
        "label": comm.label,
    }


def layer_to_dict(layer: Layer) -> dict:
    """Serialize one layer; default-valued fields are omitted for brevity."""
    data: dict = {
        "name": layer.name,
        "fwd_flops": layer.fwd_flops,
        "bwd_flops": layer.bwd_flops,
    }
    if layer.param_bytes:
        data["param_bytes"] = layer.param_bytes
    if layer.fwd_mem_bytes:
        data["fwd_mem_bytes"] = layer.fwd_mem_bytes
    if layer.bwd_mem_bytes:
        data["bwd_mem_bytes"] = layer.bwd_mem_bytes
    if layer.fwd_comm is not None:
        data["fwd_comm"] = _comm_to_dict(layer.fwd_comm)
    if layer.bwd_comm is not None:
        data["bwd_comm"] = _comm_to_dict(layer.bwd_comm)
    if layer.fwd_wait_label:
        data["fwd_wait_label"] = layer.fwd_wait_label
    if layer.bwd_wait_label:
        data["bwd_wait_label"] = layer.bwd_wait_label
    return data


def layer_from_dict(data: dict, where: str = "layer") -> Layer:
    """Parse one layer by :class:`Layer`'s field types (:mod:`repro.typed`):
    an unknown key gets a did-you-mean hint, and each value must have its
    field's type."""
    return read(Layer, data, where, WorkloadError)


def workload_to_dict(workload: Workload) -> dict:
    """Serialize a workload losslessly (``notes`` included for humans)."""
    data: dict = {
        "name": workload.name,
        "batch_per_npu": workload.batch_per_npu,
        "layers": [layer_to_dict(layer) for layer in workload.layers],
    }
    if workload.mp_group_size is not None:
        data["mp_group_size"] = workload.mp_group_size
    if workload.dp_style != "allreduce":
        data["dp_style"] = workload.dp_style
    if workload.notes:
        data["notes"] = workload.notes
    return data


def workload_from_dict(data: dict) -> Workload:
    """Build a workload from a dict produced by :func:`workload_to_dict`,
    read by :class:`Workload`'s field types as :func:`layer_from_dict`
    reads each layer."""
    return read(Workload, data, "workload", WorkloadError)
