"""Packet forwarding over live FIBs.

Two forwarding paths exist, matching how the experiment uses them:

* **toward clients** (probe requests): client prefixes are not carried in
  the dynamic BGP simulation, so requests follow the static valley-free
  policy path to the target AS (see
  :mod:`repro.topology.static_routes`) and arrive after its one-way
  latency;
* **toward the CDN** (probe replies): each hop does a longest-prefix-match
  lookup in the FIB that router holds *when the packet arrives there*, so
  convergence can reroute, loop, or blackhole a reply mid-flight.

A reply is one *flight*: :meth:`ForwardingPlane.forward` walks the FIBs
as they stand, times each hop with the engine's own float additions, and
schedules a single landing event at the last hop. Every FIB write
reaches the plane through the hook that bumps
:attr:`~repro.bgp.network.BgpNetwork.route_version`; each flight still
in the air is then cut after the hops it has taken and re-walked from
there, so every hop reads the FIB that stood at its arrival time. A walk
from the first hop is memoised until ``route_version`` moves.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection

from repro.bgp.network import BgpNetwork
from repro.net.addr import IPv4Address
from repro.telemetry import registry as telemetry_registry
from repro.topology.generator import Topology
from repro.topology.static_routes import StaticRoutes, static_routes_for

if TYPE_CHECKING:
    from repro.topology.testbed import CdnDeployment

#: Packets are dropped after this many AS hops (transient loops).
MAX_HOPS = 64

#: Newest drops kept for diagnostics; long sweeps churn out drops
#: indefinitely, so the log is a ring buffer (totals live in the
#: ``dataplane.drops`` telemetry counter, never truncated).
DROP_LOG_LIMIT = 1024


class DropReason(enum.Enum):
    NO_ROUTE = "no-route"
    LOOP = "loop"
    TTL_EXCEEDED = "ttl-exceeded"


@dataclass(frozen=True, slots=True)
class ForwardResult:
    """Outcome of a hop-by-hop forward."""

    delivered_to: str | None
    path: tuple[str, ...]
    #: simulated time of delivery or drop
    completed_at: float
    drop_reason: DropReason | None = None

    @property
    def delivered(self) -> bool:
        return self.delivered_to is not None


#: loss reason -> outage class: the one table the availability ledger
#: (per lost probe) and the workload engine (per lost request) share.
#: The first five reasons come from :func:`delivery_verdict`; the prober
#: adds ``unreachable`` (no static path to the target) and the ledger
#: ``unanswered`` (no reply ever captured).
CLASS_BY_REASON = {
    "no-route": "blackhole",
    "unreachable": "blackhole",
    "unanswered": "blackhole",
    "loop": "loop",
    "ttl-exceeded": "loop",
    "off-net": "wrong-site",
    "dead-site": "wrong-site",
}


def delivery_verdict(
    result: ForwardResult,
    deployment: "CdnDeployment",
    dead_sites: Collection[str] = (),
) -> tuple[str | None, str | None]:
    """Did this delivery count? ⟨landing site, loss reason⟩.

    The reason is None exactly when the forward reached a *live CDN
    site*; otherwise it is the drop reason, ``off-net`` (someone else's
    covering prefix) or ``dead-site`` (a down site stale FIBs still
    point at; returned with the reason).
    """
    if result.delivered_to is None:
        # An undelivered forward always carries its drop reason.
        return None, result.drop_reason.value  # type: ignore[union-attr]
    site = deployment.site_of_node(result.delivered_to)
    if site is None or site in dead_sites:
        return site, "off-net" if site is None else "dead-site"
    return site, None


#: ⟨path, latency of each hop, delivered to, drop reason⟩ of one walk
_Walk = tuple[tuple[str, ...], tuple[float, ...], str | None, DropReason | None]


class _Flight:
    """A packet between :meth:`ForwardingPlane.forward` and its landing:
    the hops it takes unless a FIB changes under it first."""

    __slots__ = (
        "dst", "on_complete", "departs_at", "path", "latencies",
        "delivered_to", "reason", "lands_at",
    )
    # Set by ForwardingPlane._fly, and again by a re-walk that moves it.
    path: tuple[str, ...]
    latencies: tuple[float, ...]
    delivered_to: str | None
    reason: DropReason | None
    lands_at: float

    def __init__(
        self,
        dst: IPv4Address,
        on_complete: Callable[[ForwardResult], None],
        departs_at: float,
    ) -> None:
        self.dst = dst
        self.on_complete = on_complete
        #: arrival time at the first node
        self.departs_at = departs_at


class ForwardingPlane:
    """Forwards packets over a network built from a topology."""

    def __init__(self, network: BgpNetwork, topology: Topology) -> None:
        self.network = network
        self.topology = topology
        #: the newest dropped forwards, for diagnostics (ring buffer;
        #: ``dropped_total`` keeps the full count)
        self.drops: deque[ForwardResult] = deque(maxlen=DROP_LOG_LIMIT)
        #: every drop ever recorded, evicted or not
        self.dropped_total = 0
        self._telemetry = telemetry_registry.current()
        #: flights in the air, in forward order (landing order on ties)
        self._flights: dict[_Flight, None] = {}
        #: ⟨start node, dst⟩ -> walk on the FIBs of ``_memo_version``
        self._memo: dict[tuple[str, IPv4Address], _Walk] = {}
        self._memo_version = network.route_version

    # ------------------------------------------------------------------
    # Static direction (CDN -> client)

    def static_routes_to(self, dest_node: str) -> StaticRoutes:
        """Cached static policy routes toward ``dest_node``.

        The memo lives on the topology, not the plane: a solve is a
        pure function of the AS graph, and the sweep builds a fresh
        plane per cell -- per-plane caching re-solved the same
        destinations for every cell of the matrix."""
        return static_routes_for(self.topology, dest_node)

    def latency_to_client(self, src_node: str, dest_node: str) -> float | None:
        """One-way latency along the static policy path, seconds."""
        path = self.static_routes_to(dest_node).path(src_node)
        if path is None:
            return None
        return self.topology.path_latency(path)

    # ------------------------------------------------------------------
    # Dynamic direction (client -> CDN prefix): flights over live FIBs

    def forward(
        self,
        start_node: str,
        dst: IPv4Address,
        on_complete: Callable[[ForwardResult], None],
        delay: float = 0.0,
    ) -> None:
        """Send a packet for ``dst`` from ``start_node``, ``delay`` seconds
        from now, over live FIBs.

        Each hop consumes its link's latency on the simulation clock and
        reads the FIB that stands when the packet arrives there.
        ``on_complete`` fires exactly once, at the delivery or drop.
        """
        flight = _Flight(dst, on_complete, self.network.engine.now + delay)
        self._fly(flight, *self._walk_from(start_node, dst))
        if not self._flights:
            self.network.on_route_change.append(self._rewalk)
        self._flights[flight] = None

    def _walk_from(self, start_node: str, dst: IPv4Address) -> _Walk:
        """The walk from ``start_node`` on the current FIBs, memoised
        until ``route_version`` moves (the catchment cache's rule)."""
        version = self.network.route_version
        if version != self._memo_version:
            self._memo.clear()
            self._memo_version = version
        key = (start_node, dst)
        walk = self._memo.get(key)
        if walk is None:
            walk = self._memo[key] = self._timed_walk(dst, [start_node], {})
        return walk

    def _timed_walk(self, dst: IPv4Address, path: list[str], seen: dict[str, str]) -> _Walk:
        """:meth:`_walk` from ``path``, with the latency of every hop."""
        delivered_to, reason = self._walk(dst, path, seen)
        return tuple(path), tuple(self.topology.hop_latencies(path)), delivered_to, reason

    def _walk(
        self, dst: IPv4Address, path: list[str], seen: dict[str, str]
    ) -> tuple[str | None, DropReason | None]:
        """Extend ``path`` from its last node, on the FIBs as they stand,
        until the packet is delivered or dropped: ⟨delivered to, drop
        reason⟩.

        ``seen`` maps each node the packet has left to the next hop its
        FIB resolved then: leaving a node toward the same next hop again
        means the packet is in a *stable* loop and is dropped at once as
        ``LOOP`` instead of burning all ``MAX_HOPS`` hops of simulated
        latency first. A revisit whose FIB entry changed in between is a
        transient loop (convergence in progress) and keeps going under
        the hop-count fallback.
        """
        next_hop_of = self.network.next_hop
        node = path[-1]
        while True:
            if len(path) > MAX_HOPS:
                return None, DropReason.TTL_EXCEEDED
            next_hop = next_hop_of(node, dst)
            if next_hop is None:
                return None, DropReason.NO_ROUTE
            if next_hop == node:
                # Locally originated covering prefix: delivered here.
                return node, None
            if seen.get(node) == next_hop:
                return None, DropReason.LOOP
            seen[node] = next_hop
            path.append(next_hop)
            node = next_hop

    def _fly(
        self,
        flight: _Flight,
        path: tuple[str, ...],
        latencies: tuple[float, ...],
        delivered_to: str | None,
        reason: DropReason | None,
    ) -> None:
        """Put ``flight`` on ``path`` and schedule its landing. Arrival
        times are the engine's own float additions, hop by hop,
        ``t[k+1] = t[k] + latency``: the instants do not depend on how
        many events carry the hops."""
        flight.path = path
        flight.latencies = latencies
        flight.delivered_to = delivered_to
        flight.reason = reason
        lands_at = flight.departs_at
        for latency in latencies:
            lands_at += latency
        flight.lands_at = lands_at
        self.network.engine.schedule_at(lands_at, lambda: self._land(flight))

    def _rewalk(self) -> None:
        """A FIB was written (the network's route-change hook): cut each
        flight in the air after its last hop already taken -- arrival
        time <= now -- and walk the rest on the FIBs as they now stand,
        with ``seen`` rebuilt from the hops it keeps. A flight whose path
        moved lands at its new time; the old landing event goes stale."""
        now = self.network.engine.now
        for flight in self._flights:
            arrives_at = flight.departs_at
            if arrives_at > now:
                walk = self._walk_from(flight.path[0], flight.dst)
            else:
                for taken, latency in enumerate(flight.latencies, 1):
                    arrives_at += latency
                    if arrives_at > now:
                        break
                else:
                    continue  # every hop taken: it lands now
                path = list(flight.path[:taken + 1])
                seen = dict(zip(path[:taken], path[1:]))
                walk = self._timed_walk(flight.dst, path, seen)
            if walk[0] != flight.path:
                self._fly(flight, *walk)
            else:
                # Same hops, same landing time: only the verdict at the
                # last node can have changed.
                flight.delivered_to, flight.reason = walk[2], walk[3]

    def _land(self, flight: _Flight) -> None:
        if flight.lands_at > self.network.engine.now or flight not in self._flights:
            return  # stale: a re-walk moved this landing
        del self._flights[flight]
        if not self._flights:
            self.network.on_route_change.remove(self._rewalk)
        self._finish(
            ForwardResult(flight.delivered_to, flight.path, flight.lands_at, flight.reason),
            flight.on_complete,
        )

    def _finish(
        self, result: ForwardResult, on_complete: Callable[[ForwardResult], None]
    ) -> None:
        if not result.delivered:
            self.drops.append(result)
            self.dropped_total += 1
            if self._telemetry.enabled:
                self._telemetry.inc("dataplane.drops")
        on_complete(result)

    # ------------------------------------------------------------------
    # Instantaneous trace (control-plane view of the current FIBs)

    def snapshot_path(self, start_node: str, dst: IPv4Address) -> ForwardResult:
        """The path the current FIBs would produce, without advancing time.

        Used by traceroute emulation and catchment checks, where the
        question is "where would a packet go *right now*".
        """
        path = [start_node]
        delivered_to, reason = self._walk(dst, path, {})
        if reason is DropReason.TTL_EXCEEDED and path[-1] in path[:-1]:
            # On FIBs that stand still the first revisit is a stable loop;
            # one closing on the last hop the TTL allows is still a loop.
            reason = DropReason.LOOP
        return ForwardResult(delivered_to, tuple(path), self.network.engine.now, reason)
