"""Workload (de)serialization to plain dicts / JSON.

Scenario specs (``repro.api``) reference workloads by registry key when
possible, but custom workloads — hand-built layer stacks in tests, tenant
shapes no factory produces — must survive a spec's JSON round trip too.
These converters are lossless: ``workload_from_dict(workload_to_dict(w))``
compares equal to ``w`` for any valid :class:`Workload`.
"""

from __future__ import annotations

from typing import Any

from ..collectives.types import CollectiveType
from ..errors import WorkloadError
from ..typed import read_value
from .base import Workload
from .layers import CommAttachment, Layer

_LAYER_KEYS = {
    "name", "fwd_flops", "bwd_flops", "param_bytes", "fwd_mem_bytes",
    "bwd_mem_bytes", "fwd_comm", "bwd_comm", "fwd_wait_label",
    "bwd_wait_label",
}
_WORKLOAD_KEYS = {
    "name", "layers", "batch_per_npu", "mp_group_size", "dp_style", "notes",
}


def _read(data: dict, where: str, key: str, kind: Any, default: Any = None) -> Any:
    """``data[key]`` (``default`` when absent) held to ``kind``'s type rule
    (:mod:`repro.typed`); an error names it as ``<where>.<key>``."""
    return read_value(kind, data.get(key, default), f"{where}.{key}", WorkloadError)


def _comm_to_dict(comm: CommAttachment) -> dict:
    return {
        "ctype": comm.ctype.value,
        "size": comm.size,
        "blocking": comm.blocking,
        "label": comm.label,
    }


def _comm_from_dict(data: dict, where: str) -> CommAttachment:
    if not isinstance(data, dict):
        raise WorkloadError(f"comm attachment must be a dict, got {type(data)}")
    return CommAttachment(
        ctype=CollectiveType.from_name(_read(data, where, "ctype", str)),
        size=_read(data, where, "size", float),
        blocking=_read(data, where, "blocking", bool, True),
        label=_read(data, where, "label", str, ""),
    )


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
    """Parse one layer; unknown keys are rejected to catch typos, and each
    value must have its field's type."""
    if not isinstance(data, dict):
        raise WorkloadError(f"layer entry must be a dict, got {type(data)}")
    unknown = set(data) - _LAYER_KEYS
    if unknown:
        raise WorkloadError(f"unknown layer keys: {sorted(unknown)}")
    fwd_comm, bwd_comm = (
        _comm_from_dict(data[key], f"{where}.{key}") if data.get(key) else None
        for key in ("fwd_comm", "bwd_comm")
    )
    return Layer(
        name=_read(data, where, "name", str, ""),
        fwd_flops=_read(data, where, "fwd_flops", float, 0.0),
        bwd_flops=_read(data, where, "bwd_flops", float, 0.0),
        param_bytes=_read(data, where, "param_bytes", float, 0.0),
        fwd_mem_bytes=_read(data, where, "fwd_mem_bytes", float, 0.0),
        bwd_mem_bytes=_read(data, where, "bwd_mem_bytes", float, 0.0),
        fwd_comm=fwd_comm,
        bwd_comm=bwd_comm,
        fwd_wait_label=_read(data, where, "fwd_wait_label", str, ""),
        bwd_wait_label=_read(data, where, "bwd_wait_label", str, ""),
    )


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
    """Build a workload from a dict produced by :func:`workload_to_dict`."""
    if not isinstance(data, dict):
        raise WorkloadError(f"workload must be a dict, got {type(data)}")
    unknown = set(data) - _WORKLOAD_KEYS
    if unknown:
        raise WorkloadError(f"unknown workload keys: {sorted(unknown)}")
    layers_data = data.get("layers")
    if not layers_data:
        raise WorkloadError("workload dict needs a non-empty 'layers' list")
    return Workload(
        name=_read(data, "workload", "name", str, ""),
        layers=[
            layer_from_dict(entry, f"layers[{index}]")
            for index, entry in enumerate(layers_data)
        ],
        batch_per_npu=_read(data, "workload", "batch_per_npu", int, 1),
        mp_group_size=_read(data, "workload", "mp_group_size", int | None),
        dp_style=_read(data, "workload", "dp_style", str, "allreduce"),
        notes=_read(data, "workload", "notes", str, ""),
    )
