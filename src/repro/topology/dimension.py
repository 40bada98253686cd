"""Per-dimension description of a multi-dimensional NPU network.

A *dimension* (paper Fig. 1.a) is one rail of the hierarchical network: the
set of peer NPUs an NPU communicates with at that level, the physical
interconnect kind (ring, fully-connected, or switch), and the bandwidth and
latency characteristics of that rail.

The paper's Table 2 specifies, per dimension:

* ``size`` — the number of peer NPUs participating at that level (P_i),
* ``BW/Link`` — uni-directional bandwidth of one physical link,
* ``#Links/NPU`` — how many such links each NPU devotes to the dimension,
* ``Network Latency`` — the NPU-to-NPU step latency for a minimum message.

The aggregate bandwidth an NPU can drive into the dimension is
``BW/Link x Links/NPU``; topology-aware contention-free collectives (Table 1)
are assumed to saturate exactly this budget, which is how the paper's latency
model (Sec. 4.4) treats the per-byte cost ``B_K``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Annotated

from ..errors import TopologyError
from ..typed import by_name
from ..units import gbps, to_gbps


class DimensionKind(enum.Enum):
    """Physical interconnect style of one network dimension (paper Table 1)."""

    RING = "Ring"
    FULLY_CONNECTED = "FullyConnected"
    SWITCH = "Switch"

    @property
    def short_name(self) -> str:
        """Abbreviation used in topology names, e.g. ``3D-FC_Ring_SW``."""
        return {
            DimensionKind.RING: "Ring",
            DimensionKind.FULLY_CONNECTED: "FC",
            DimensionKind.SWITCH: "SW",
        }[self]

    @classmethod
    def from_name(cls, name: str) -> "DimensionKind":
        """Parse a kind from a full or abbreviated name (case-insensitive)."""
        lowered = name.strip().lower()
        aliases = {
            "ring": cls.RING,
            "fc": cls.FULLY_CONNECTED,
            "fullyconnected": cls.FULLY_CONNECTED,
            "fully_connected": cls.FULLY_CONNECTED,
            "direct": cls.FULLY_CONNECTED,
            "sw": cls.SWITCH,
            "switch": cls.SWITCH,
        }
        if lowered not in aliases:
            raise TopologyError(f"unknown dimension kind {name!r}")
        return aliases[lowered]


@dataclass(frozen=True)
class DimensionSpec:
    """One dimension of a multi-dimensional training network.

    Attributes
    ----------
    kind:
        The interconnect style; selects the topology-aware collective
        algorithm (Table 1).
    size:
        Number of peer NPUs in the dimension (``P_i`` in the paper). Must be
        at least 2 for communication to be meaningful.
    link_bw:
        Uni-directional bandwidth of a single link in bytes/second.
    links_per_npu:
        Number of links each NPU devotes to this dimension.
    step_latency:
        NPU-to-NPU latency (seconds) for a minimum-size message — the
        ``step_latency`` of the paper's fixed-delay term ``A_K``.
    max_packet_bytes:
        Maximum payload per network packet.  When positive, transfers are
        charged per-packet header overhead, modelling the goodput loss the
        paper discusses for very fine chunking ("this increases the
        header-to-packet ratio and hurts the network's goodput", Sec. 6.1).
        0 disables the packet model (the default, matching the paper's main
        experiments).
    packet_header_bytes:
        Header/framing bytes charged per packet when the packet model is on.
    name:
        Optional human label (e.g. ``"intra-package"``).
    """

    kind: Annotated[DimensionKind, by_name(DimensionKind.from_name)]
    size: int
    link_bw: float
    links_per_npu: int = 1
    step_latency: float = 0.0
    max_packet_bytes: float = 0.0
    packet_header_bytes: float = 0.0
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.size < 2:
            raise TopologyError(
                f"dimension size must be >= 2, got {self.size} "
                f"(a size-1 dimension carries no traffic)"
            )
        if self.link_bw <= 0:
            raise TopologyError(f"link bandwidth must be positive, got {self.link_bw}")
        if self.links_per_npu < 1:
            raise TopologyError(
                f"links per NPU must be >= 1, got {self.links_per_npu}"
            )
        if self.step_latency < 0:
            raise TopologyError(
                f"step latency must be non-negative, got {self.step_latency}"
            )
        if self.max_packet_bytes < 0 or self.packet_header_bytes < 0:
            raise TopologyError("packet model parameters must be non-negative")
        if self.packet_header_bytes > 0 and self.max_packet_bytes <= 0:
            raise TopologyError(
                "packet headers require a positive max_packet_bytes"
            )

    @property
    def bandwidth(self) -> float:
        """Aggregate per-NPU bandwidth into this dimension (bytes/second).

        This is the ``Aggr BW/NPU`` column of Table 2 and the inverse of the
        per-byte latency ``B_K`` of Sec. 4.4.
        """
        return self.link_bw * self.links_per_npu

    @property
    def bandwidth_gbps(self) -> float:
        """Aggregate bandwidth in Gb/s, for reporting against Table 2."""
        return to_gbps(self.bandwidth)

    def wire_bytes(self, payload_bytes: float, steps: int = 1) -> float:
        """Payload plus per-packet header overhead actually put on the wire.

        The payload is split evenly across ``steps`` messages; each message
        is packetized at ``max_packet_bytes`` and charged
        ``packet_header_bytes`` per packet.  With the packet model disabled
        this is the identity.
        """
        if payload_bytes < 0:
            raise TopologyError(f"payload must be >= 0, got {payload_bytes}")
        if self.max_packet_bytes <= 0 or payload_bytes == 0:
            return payload_bytes
        steps = max(1, steps)
        per_step = payload_bytes / steps
        packets_per_step = math.ceil(per_step / self.max_packet_bytes)
        return payload_bytes + steps * packets_per_step * self.packet_header_bytes

    def with_packet_model(
        self, max_packet_bytes: float, packet_header_bytes: float
    ) -> "DimensionSpec":
        """Return a copy with the packet/goodput model enabled."""
        return replace(
            self,
            max_packet_bytes=max_packet_bytes,
            packet_header_bytes=packet_header_bytes,
        )

    def scaled(self, bw_factor: float) -> "DimensionSpec":
        """Return a copy with the link bandwidth multiplied by ``bw_factor``.

        Used by the Sec. 6.3 provisioning sweeps that re-distribute BW across
        dimensions while keeping everything else fixed.
        """
        if bw_factor <= 0:
            raise TopologyError(f"bandwidth factor must be positive, got {bw_factor}")
        return replace(self, link_bw=self.link_bw * bw_factor)

    def describe(self) -> str:
        """One-line summary used by CLI/bench table output."""
        return (
            f"{self.kind.short_name}(P={self.size}, "
            f"{self.bandwidth_gbps:.4g} Gb/s, "
            f"{self.step_latency * 1e9:.4g} ns)"
        )


def dimension(
    kind: str | DimensionKind,
    size: int,
    link_gbps: float,
    links_per_npu: int = 1,
    latency_ns: float = 0.0,
    name: str = "",
) -> DimensionSpec:
    """Convenience constructor using the paper's units (Gb/s and ns)."""
    resolved = (
        kind if isinstance(kind, DimensionKind) else DimensionKind.from_name(kind)
    )
    return DimensionSpec(
        kind=resolved,
        size=size,
        link_bw=gbps(link_gbps),
        links_per_npu=links_per_npu,
        step_latency=latency_ns * 1e-9,
        name=name,
    )
