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
from repro.bgp.session import Session, SessionTiming
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

    def attach(self, node_id: str, timing: SessionTiming | None = None) -> None:
        """Peer with ``node_id``: receive its full table plus all updates."""
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
            timing or self.network.default_timing,
        )
        router.add_session(session)
        self._peers.append(node_id)

    # ------------------------------------------------------------------
    # Query helpers used by the measurement layer

    def updates_for(
        self,
        prefix: IPv4Prefix,
        since: float = 0.0,
        until: float = float("inf"),
    ) -> list[CollectorEntry]:
        """All logged updates for one prefix in a time window."""
        return [
            e
            for e in self.entries
            if e.prefix == prefix and since <= e.time <= until
        ]

    def peers_with_route(self, prefix: IPv4Prefix, at: float) -> set[str]:
        """Peers whose most recent update for ``prefix`` by time ``at`` was
        an announcement (i.e. peers that "have a route" then)."""
        latest: dict[str, CollectorEntry] = {}
        for entry in self.entries:
            if entry.prefix != prefix or entry.time > at:
                continue
            current = latest.get(entry.peer)
            if current is None or entry.time >= current.time:
                latest[entry.peer] = entry
        return {peer for peer, entry in latest.items() if entry.announce}

    def visibility(self, prefix: IPv4Prefix, at: float) -> float:
        """Fraction of collector peers with a route to ``prefix`` at ``at``.

        Mirrors the paper's visibility metric (fraction of RIS peers that
        export full tables and have routes to the prefix).
        """
        if not self._peers:
            return 0.0
        return len(self.peers_with_route(prefix, at)) / len(self._peers)

    def clear(self) -> None:
        """Drop all logged entries (e.g. between experiment phases)."""
        self.entries.clear()
