"""Forward and reverse traceroute emulation.

Appendix C.1 measures *reverse* paths (target toward the CDN prefixes)
with reverse traceroute, translates them to AS-level paths, and compares
the path toward the unicast prefix against the path toward the prepended
anycast prefix. Here the reverse path is read straight from the live
FIBs; the :class:`ReverseTraceroute` wrapper adds the tool's real-world
limitation -- only a fraction of targets support the Record Route IP
option, so some measurements fail (the paper got 17,908 usable pairs out
of 50 K targets).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dataplane.forwarding import ForwardingPlane
from repro.net.addr import IPv4Address
from repro.topology.generator import Topology


def forward_path(plane: ForwardingPlane, src_node: str, dst: IPv4Address) -> list[str] | None:
    """Node-level path from ``src_node`` to ``dst`` over current FIBs."""
    result = plane.snapshot_path(src_node, dst)
    if not result.delivered:
        return None
    return list(result.path)


def reverse_path(
    plane: ForwardingPlane, target_node: str, prefix_address: IPv4Address
) -> list[str] | None:
    """Node-level path *from the target* toward an address in a CDN
    prefix -- what reverse traceroute measures."""
    return forward_path(plane, target_node, prefix_address)


def as_level_path(topology: Topology, node_path: list[str]) -> list[int]:
    """Standard IP-to-AS translation: node path -> AS path, with
    consecutive duplicates collapsed (multiple routers in one AS)."""
    as_path: list[int] = []
    for node in node_path:
        asn = topology.ases[node].asn
        if not as_path or as_path[-1] != asn:
            as_path.append(asn)
    return as_path


@dataclass(frozen=True, slots=True)
class PathPair:
    """Reverse paths from one target to the unicast and anycast prefixes."""

    target_node: str
    to_unicast: list[str]
    to_anycast: list[str]


class ReverseTraceroute:
    """Measures reverse paths, with Record-Route-style coverage gaps."""

    def __init__(
        self,
        plane: ForwardingPlane,
        topology: Topology,
        support_prob: float = 1.0,
        rng: random.Random | None = None,
    ) -> None:
        if not 0.0 <= support_prob <= 1.0:
            raise ValueError(f"support_prob must be in [0, 1], got {support_prob}")
        self.plane = plane
        self.topology = topology
        self.support_prob = support_prob
        self.rng = rng or random.Random(0)
        self.attempted = 0
        self.succeeded = 0

    def measure_pair(
        self,
        target_node: str,
        unicast_address: IPv4Address,
        anycast_address: IPv4Address,
    ) -> PathPair | None:
        """Both reverse paths for one target, or None if either fails.

        Record-Route support is a property of the *target*, so one draw
        gates both measurements, as in the paper's methodology.
        """
        self.attempted += 1
        if self.rng.random() >= self.support_prob:
            return None
        to_unicast = reverse_path(self.plane, target_node, unicast_address)
        to_anycast = reverse_path(self.plane, target_node, anycast_address)
        if to_unicast is None or to_anycast is None:
            return None
        self.succeeded += 1
        return PathPair(target_node, to_unicast, to_anycast)
