"""Topology (de)serialization to plain dicts / JSON files.

Lets users describe platforms in version-controlled JSON instead of code::

    {
      "name": "my-pod",
      "dims": [
        {"kind": "FC",   "size": 8,  "link_gbps": 200, "links_per_npu": 7,
         "latency_ns": 700, "name": "intra-node"},
        {"kind": "SW",   "size": 16, "link_gbps": 400, "links_per_npu": 1,
         "latency_ns": 1700, "name": "pod"}
      ]
    }

Round-trips exactly: ``topology_from_dict(topology_to_dict(t)) == t``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..errors import TopologyError
from ..typed import read_value
from ..units import to_gbps
from .dimension import DimensionSpec
from .topology import Topology

_REQUIRED_DIM_KEYS = {"kind", "size"}
_BW_KEYS = {"link_gbps", "link_bw"}
_LATENCY_KEYS = {"latency_ns", "step_latency"}
_PACKET_KEYS = {"max_packet_bytes", "packet_header_bytes"}
_OPTIONAL_DIM_KEYS = (
    {"links_per_npu", "name"} | _BW_KEYS | _LATENCY_KEYS | _PACKET_KEYS
)


def dimension_to_dict(dim: DimensionSpec) -> dict:
    """Serialize one dimension.

    Native units (``link_bw`` in bytes/s, ``step_latency`` in seconds) are
    authoritative so round-trips are bit-exact; the paper-unit fields
    (``link_gbps``, ``latency_ns``) are included for human readers.
    """
    return {
        "kind": dim.kind.short_name,
        "size": dim.size,
        "link_bw": dim.link_bw,
        "link_gbps": to_gbps(dim.link_bw),
        "links_per_npu": dim.links_per_npu,
        "step_latency": dim.step_latency,
        "latency_ns": dim.step_latency * 1e9,
        "max_packet_bytes": dim.max_packet_bytes,
        "packet_header_bytes": dim.packet_header_bytes,
        "name": dim.name,
    }


def dimension_from_dict(data: dict, where: str = "dimension") -> DimensionSpec:
    """Parse one dimension; unknown keys are rejected to catch typos.

    Accepts bandwidth as ``link_bw`` (bytes/s; exact) or ``link_gbps``, and
    latency as ``step_latency`` (seconds; exact) or ``latency_ns``.  Native
    units win when both are present.  Each value must have its field's
    type (:mod:`repro.typed`); errors name it as ``<where>.<key>``.
    """
    if not isinstance(data, dict):
        raise TopologyError(f"dimension entry must be a dict, got {type(data)}")
    unknown = set(data) - _REQUIRED_DIM_KEYS - _OPTIONAL_DIM_KEYS
    if unknown:
        raise TopologyError(f"unknown dimension keys: {sorted(unknown)}")
    missing = _REQUIRED_DIM_KEYS - set(data)
    if missing:
        raise TopologyError(f"missing dimension keys: {sorted(missing)}")
    if not (_BW_KEYS & set(data)):
        raise TopologyError("dimension needs 'link_bw' or 'link_gbps'")

    from ..units import gbps
    from .dimension import DimensionKind

    def field(key: str, kind: type, default: Any = None) -> Any:
        value = data.get(key, default)
        return read_value(kind, value, f"{where}.{key}", TopologyError)

    if "link_bw" in data:
        link_bw = field("link_bw", float)
    else:
        link_bw = gbps(field("link_gbps", float))
    if "step_latency" in data:
        step_latency = field("step_latency", float)
    else:
        step_latency = field("latency_ns", float, 0.0) * 1e-9
    return DimensionSpec(
        kind=DimensionKind.from_name(field("kind", str)),
        size=field("size", int),
        link_bw=link_bw,
        links_per_npu=field("links_per_npu", int, 1),
        step_latency=step_latency,
        max_packet_bytes=field("max_packet_bytes", float, 0.0),
        packet_header_bytes=field("packet_header_bytes", float, 0.0),
        name=field("name", str, ""),
    )


def topology_to_dict(topology: Topology) -> dict:
    """Serialize a topology (parent-index views are flattened)."""
    return {
        "name": topology.name,
        "dims": [dimension_to_dict(dim) for dim in topology.dims],
    }


def topology_from_dict(data: dict) -> Topology:
    """Build a topology from a dict produced by :func:`topology_to_dict`."""
    if not isinstance(data, dict):
        raise TopologyError(f"topology must be a dict, got {type(data)}")
    unknown = set(data) - {"name", "dims"}
    if unknown:
        raise TopologyError(f"unknown topology keys: {sorted(unknown)}")
    dims_data = data.get("dims")
    if not dims_data:
        raise TopologyError("topology dict needs a non-empty 'dims' list")
    dims = [
        dimension_from_dict(entry, f"dims[{index}]")
        for index, entry in enumerate(dims_data)
    ]
    name = read_value(str, data.get("name", ""), "topology.name", TopologyError)
    return Topology(dims, name=name)


def load_topology(path: str | Path) -> Topology:
    """Load a topology from a JSON file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise TopologyError(f"invalid topology JSON in {path}: {error}") from error
    return topology_from_dict(data)


def save_topology(topology: Topology, path: str | Path) -> None:
    """Write a topology to a JSON file."""
    Path(path).write_text(json.dumps(topology_to_dict(topology), indent=2) + "\n")
