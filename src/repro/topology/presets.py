"""Named topology presets from the paper (Table 2 plus the "current" system).

All presets model 1024-NPU platforms.  Bandwidths are the *aggregate* per-NPU
values from Table 2 expressed as ``BW/link x links/NPU``; latencies are the
``step_latency`` column (direct NPU-to-NPU latency for a minimum message).

The "current" topology is the 2-dimensional DGX-2-like system of Fig. 4
(1200 Gb/s intra-node vs 100 Gb/s NIC), which the baseline scheduler already
drives at ~97.7% utilization — included so that Fig. 4 can be regenerated.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..registry import Registry
from .dimension import dimension
from .topology import Topology


def current_2d() -> Topology:
    """Today's 2D platform: 16 NPUs/node at 1200 Gb/s, 64 nodes at 100 Gb/s."""
    return Topology(
        [
            dimension(
                "SW", 16, 200.0, links_per_npu=6, latency_ns=700, name="intra-node"
            ),
            dimension("SW", 64, 100.0, links_per_npu=1, latency_ns=1700, name="NIC"),
        ],
        name="current-2D",
    )


def topo_2d_sw_sw() -> Topology:
    """2D-SW_SW: 16x64, aggregate BW (1200, 800) Gb/s."""
    return Topology(
        [
            dimension(
                "SW", 16, 200.0, links_per_npu=6, latency_ns=700, name="intra-node"
            ),
            dimension("SW", 64, 800.0, links_per_npu=1, latency_ns=1700, name="NIC"),
        ],
        name="2D-SW_SW",
    )


def topo_3d_sw_sw_sw_homo() -> Topology:
    """3D-SW_SW_SW_homo: 16x8x8, aggregate BW (800, 800, 800) Gb/s."""
    return Topology(
        [
            dimension(
                "SW", 16, 200.0, links_per_npu=4, latency_ns=700, name="intra-node"
            ),
            dimension("SW", 8, 200.0, links_per_npu=4, latency_ns=700, name="pod"),
            dimension("SW", 8, 800.0, links_per_npu=1, latency_ns=1700, name="NIC"),
        ],
        name="3D-SW_SW_SW_homo",
    )


def topo_3d_sw_sw_sw_hetero() -> Topology:
    """3D-SW_SW_SW_hetero: 16x8x8, aggregate BW (1600, 800, 400) Gb/s."""
    return Topology(
        [
            dimension(
                "SW", 16, 200.0, links_per_npu=8, latency_ns=700, name="intra-node"
            ),
            dimension("SW", 8, 200.0, links_per_npu=4, latency_ns=700, name="pod"),
            dimension("SW", 8, 400.0, links_per_npu=1, latency_ns=1700, name="NIC"),
        ],
        name="3D-SW_SW_SW_hetero",
    )


def topo_3d_fc_ring_sw() -> Topology:
    """3D-FC_Ring_SW: 8x16x8, aggregate BW (1400, 800, 400) Gb/s."""
    return Topology(
        [
            dimension(
                "FC", 8, 200.0, links_per_npu=7, latency_ns=700, name="intra-node"
            ),
            dimension("Ring", 16, 200.0, links_per_npu=4, latency_ns=700, name="pod"),
            dimension("SW", 8, 400.0, links_per_npu=1, latency_ns=1700, name="NIC"),
        ],
        name="3D-FC_Ring_SW",
    )


def topo_4d_ring_sw_sw_sw() -> Topology:
    """4D-Ring_SW_SW_SW: 4x4x8x8, aggregate BW (2000, 1600, 800, 400) Gb/s."""
    return Topology(
        [
            dimension(
                "Ring", 4, 1000.0, links_per_npu=2, latency_ns=20, name="package"
            ),
            dimension(
                "SW", 4, 200.0, links_per_npu=8, latency_ns=700, name="intra-node"
            ),
            dimension("SW", 8, 200.0, links_per_npu=4, latency_ns=700, name="pod"),
            dimension("SW", 8, 400.0, links_per_npu=1, latency_ns=1700, name="NIC"),
        ],
        name="4D-Ring_SW_SW_SW",
    )


def topo_4d_ring_fc_ring_sw() -> Topology:
    """4D-Ring_FC_Ring_SW: 4x8x4x8, aggregate BW (3000, 1400, 1200, 800) Gb/s."""
    return Topology(
        [
            dimension(
                "Ring", 4, 1500.0, links_per_npu=2, latency_ns=20, name="package"
            ),
            dimension(
                "FC", 8, 200.0, links_per_npu=7, latency_ns=700, name="intra-node"
            ),
            dimension("Ring", 4, 200.0, links_per_npu=6, latency_ns=700, name="pod"),
            dimension("SW", 8, 800.0, links_per_npu=1, latency_ns=1700, name="NIC"),
        ],
        name="4D-Ring_FC_Ring_SW",
    )


#: The presets by name, current system first, then Table 2 in paper order.
PRESETS: Registry[Topology] = Registry(
    "topology preset",
    {
        "current-2D": current_2d,
        "2D-SW_SW": topo_2d_sw_sw,
        "3D-SW_SW_SW_homo": topo_3d_sw_sw_sw_homo,
        "3D-SW_SW_SW_hetero": topo_3d_sw_sw_sw_hetero,
        "3D-FC_Ring_SW": topo_3d_fc_ring_sw,
        "4D-Ring_SW_SW_SW": topo_4d_ring_sw_sw_sw,
        "4D-Ring_FC_Ring_SW": topo_4d_ring_fc_ring_sw,
    },
    error=TopologyError,
    casefold=False,
)
get_topology = PRESETS.build
preset_names = PRESETS.names
register_preset = PRESETS.register

#: Topology names evaluated in the paper's result figures (Fig. 8, 11, 12).
PAPER_TOPOLOGY_NAMES: tuple[str, ...] = (
    "2D-SW_SW",
    "3D-SW_SW_SW_homo",
    "3D-SW_SW_SW_hetero",
    "3D-FC_Ring_SW",
    "4D-Ring_SW_SW_SW",
    "4D-Ring_FC_Ring_SW",
)


def paper_topologies() -> list[Topology]:
    """The six next-gen topologies of Table 2, in paper order."""
    return [get_topology(name) for name in PAPER_TOPOLOGY_NAMES]
