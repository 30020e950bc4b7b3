"""RIS/RouteViews-style route collectors.

A :class:`RouteCollector` taps a set of routers ("collector peers") and
records every update they export, timestamped with the simulated clock.
The paper's Appendices A and B are built entirely from such feeds
(per ⟨RIS peer, event⟩ convergence and propagation times), and §5.2 uses
them to check that PEERING's convergence resembles other networks'.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.route import Update
from repro.bgp.session import Session
from repro.net.addr import IPv4Prefix


@dataclass(frozen=True, slots=True)
class CollectorEntry:
    """One logged update: who sent it, when, and what it said."""

    time: float
    peer: str
    peer_asn: int
    announce: bool
    prefix: IPv4Prefix
    as_path: tuple[int, ...]


class RouteCollector:
    """Collects timestamped BGP updates from a set of peer routers."""

    def __init__(self, name: str, network: BgpNetwork) -> None:
        self.name = name
        self.network = network
        self.entries: list[CollectorEntry] = []
        self._peers: list[str] = []

    @property
    def peers(self) -> list[str]:
        """Node ids of the routers feeding this collector."""
        return list(self._peers)

    def attach(self, node_id: str) -> None:
        """Peer with ``node_id`` over a session of the network's default
        timing: receive its full table plus all updates."""
        if node_id in self._peers:
            raise ValueError(f"collector {self.name!r} already peers with {node_id!r}")
        router = self.network.routers[node_id]
        remote_id = f"{self.name}@{node_id}"

        def record(update: Update, peer: str = node_id, asn: int = router.asn) -> None:
            route = update.route
            as_path = route.as_path if route is not None else ()
            self.entries.append(CollectorEntry(
                self.network.engine.now, peer, asn, route is not None, update.prefix, as_path,
            ))

        session = Session(
            self.network.engine,
            self.network.rng,
            node_id,
            remote_id,
            Relationship.COLLECTOR,
            record,
            self.network.default_timing,
        )
        # A tap is a session the network's snapshot never held.
        self.network.reshaped = True
        router.add_session(session)
        self._peers.append(node_id)

    def clear(self) -> None:
        """Drop all logged entries (e.g. between experiment phases)."""
        self.entries.clear()
