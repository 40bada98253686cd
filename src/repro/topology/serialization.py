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

from ..errors import TopologyError
from ..typed import read, read_value
from ..units import GBPS, NS, to_gbps
from .dimension import DimensionSpec
from .topology import Topology

#: Paper-unit keys a dimension may hold instead of a native field: each
#: names the native field and the factor converting to its unit.
_PAPER_UNITS = {"link_gbps": ("link_bw", GBPS), "latency_ns": ("step_latency", NS)}


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
    """Parse one dimension by :class:`DimensionSpec`'s field types.

    Accepts bandwidth as ``link_bw`` (bytes/s; exact) or ``link_gbps``, and
    latency as ``step_latency`` (seconds; exact) or ``latency_ns``.  Native
    units win when both are present.  Every value is read by
    :mod:`repro.typed` (an unknown key gets a did-you-mean hint), and an
    error names it as ``<where>.<key>``.
    """
    if isinstance(data, dict):
        data = dict(data)
        for key, (native, factor) in _PAPER_UNITS.items():
            if key in data:
                value = read_value(
                    float, data.pop(key), f"{where}.{key}", TopologyError
                )
                data.setdefault(native, value * factor)
    return read(DimensionSpec, data, where, TopologyError, tuple(_PAPER_UNITS))


def topology_to_dict(topology: Topology) -> dict:
    """Serialize a topology (parent-index views are flattened)."""
    return {
        "name": topology.name,
        "dims": [dimension_to_dict(dim) for dim in topology.dims],
    }


def topology_from_dict(data: dict) -> Topology:
    """Build a topology from a dict produced by :func:`topology_to_dict`,
    each dimension parsed by :func:`dimension_from_dict`."""
    if isinstance(data, dict) and isinstance(data.get("dims"), (list, tuple)):
        dims = [
            dimension_from_dict(entry, f"dims[{index}]")
            for index, entry in enumerate(data["dims"])
        ]
        data = {**data, "dims": dims}
    return read(Topology, data, "topology", TopologyError)


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
