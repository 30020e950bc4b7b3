"""Packet forwarding over live FIBs.

Two forwarding paths exist, matching how the experiment uses them:

* **toward clients** (probe requests): client prefixes are not carried in
  the dynamic BGP simulation, so requests follow the settled
  single-origin policy path to the target AS (see
  :func:`repro.topology.propagation.path_to`) and arrive after its
  one-way latency, which the topology memoises per ⟨site, client⟩
  (:meth:`~repro.topology.generator.Topology.settled_latency`);
* **toward the CDN** (probe replies): each hop does a longest-prefix-match
  lookup in the FIB that router holds *when the packet arrives there*, so
  convergence can reroute, loop, or blackhole a reply mid-flight.

A reply is one *flight*: :meth:`ForwardingPlane.forward` walks the FIBs
as they stand, times each hop with the engine's own float additions, and
schedules a single landing event at the last hop. Every FIB write
reaches the plane, with the node written, through the hook that bumps
:attr:`~repro.bgp.network.BgpNetwork.route_version`; each flight still
in the air is then cut after the hops it has taken and re-walked from
there, so every hop reads the FIB that stood at its arrival time.

"Where does traffic from X land now?" has one answer,
:meth:`ForwardingPlane.walk_from`: the untimed :class:`Walk` from X on
the current FIBs, memoised per ⟨start node, dst⟩. A walk reads only the
FIBs on its path, so a write drops only the entries whose path holds
the written node (35,838 misses per flash-stream batch at seed 42 while
a write flushed the whole memo, 3,423 since). Flights take it (filling
in its hop latencies the first time), the workload tick reads it for
the clients whose verdict may have moved, ``RunRig.live_site`` per
lookup, and :meth:`ForwardingPlane.snapshot_path`
returns it as a :class:`ForwardResult`. :func:`delivery_verdict` turns
its ⟨delivered node, drop reason⟩ into ⟨site, loss reason⟩ for all of
them and for the prober.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection

from repro.bgp.network import BgpNetwork
from repro.net.addr import IPv4Address
from repro.telemetry import registry as telemetry_registry
from repro.topology.generator import Topology

if TYPE_CHECKING:
    from repro.topology.testbed import CdnDeployment

#: Packets are dropped after this many AS hops (transient loops).
MAX_HOPS = 64


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
    delivered_to: str | None,
    drop_reason: DropReason | None,
    deployment: "CdnDeployment",
    dead_sites: Collection[str] = (),
) -> tuple[str | None, str | None]:
    """Did this delivery count? ⟨landing site, loss reason⟩ of a packet
    delivered to ``delivered_to`` or dropped for ``drop_reason`` (a
    flight's :class:`ForwardResult`, or a :class:`Walk` from the memo).

    The reason is None exactly when the packet reached a *live CDN
    site*; otherwise it is the drop reason, ``off-net`` (someone else's
    covering prefix) or ``dead-site`` (a down site stale FIBs still
    point at; returned with the reason).
    """
    if delivered_to is None:
        # An undelivered packet always carries its drop reason.
        return None, drop_reason.value  # type: ignore[union-attr]
    site = deployment.site_of_node(delivered_to)
    if site is None or site in dead_sites:
        return site, "off-net" if site is None else "dead-site"
    return site, None


class Walk:
    """Where a packet for one destination goes from ``path[0]`` on the
    FIBs as they stand: the nodes it visits, and the node that delivers
    it or the reason it is dropped."""

    __slots__ = ("path", "delivered_to", "reason", "latencies")

    def __init__(
        self, path: tuple[str, ...], delivered_to: str | None, reason: DropReason | None
    ) -> None:
        self.path = path
        self.delivered_to = delivered_to
        self.reason = reason
        #: the latency of each hop, filled in by the first flight (or
        #: quiet probe pass) that takes the walk; nothing else needs them
        self.latencies: tuple[float, ...] | None = None


class _Flight:
    """A packet between :meth:`ForwardingPlane.forward` and its landing:
    the hops it takes unless a FIB changes under it first."""

    __slots__ = ("dst", "on_complete", "departs_at", "walk", "lands_at")
    # Set by ForwardingPlane._fly, and again by a re-walk.
    walk: Walk
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
        self._telemetry = telemetry_registry.current()
        #: flights in the air, in forward order (landing order on ties)
        self._flights: dict[_Flight, None] = {}
        #: landing events in the engine's queue, stale ones included
        self.queued_landings = 0
        #: ⟨start node, dst's integer⟩ -> walk on the current FIBs (an
        #: address hashes in Python code, an int does not, and the
        #: workload tick looks up millions of times)
        self._memo: dict[tuple[str, int], Walk] = {}
        #: node -> the memo keys whose walk read that node's FIB (every
        #: node on the walk's path)
        self._readers: dict[str, set[tuple[str, int]]] = {}
        #: the network's route-change hook list this plane listens on
        #: (None until the first lookup)
        self._hooks: list[Callable[[str], None]] | None = None
        #: memo lookups answered, memo fills, and FIB writes (or loads)
        #: that dropped memo entries
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Static direction (CDN -> client)

    def latency_to_client(self, src_node: str, dest_node: str) -> float | None:
        """One-way latency along the settled policy path, seconds
        (:meth:`Topology.settled_latency`). The memo lives on the
        topology, not the plane: it is a pure function of the AS graph,
        the sweep builds a fresh plane per cell, and target selection
        has asked the same ⟨site, client⟩ pairs already."""
        return self.topology.settled_latency(src_node, dest_node)

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
        self.launch(start_node, dst, on_complete, self.network.engine.now + delay)

    def launch(
        self,
        start_node: str,
        dst: IPv4Address,
        on_complete: Callable[[ForwardResult], None],
        departs_at: float,
    ) -> _Flight:
        """:meth:`forward` for a packet that leaves ``start_node`` at the
        absolute time ``departs_at`` (not before now); the flight in the
        air."""
        flight = _Flight(dst, on_complete, departs_at)
        self._fly(flight, self.walk_from(start_node, dst))
        self._flights[flight] = None
        return flight

    @property
    def in_air(self) -> int:
        """How many flights are in the air."""
        return len(self._flights)

    def walk_from(self, start_node: str, dst: IPv4Address) -> Walk:
        """Where a packet for ``dst`` sent from ``start_node`` now goes:
        the walk on the current FIBs, memoised until a FIB on its path
        is written (:meth:`_fib_written`)."""
        if self._hooks is not self.network.on_route_change:
            self._listen()
        key = (start_node, dst.value)
        walk = self._memo.get(key)
        if walk is not None:
            self.hits += 1
            return walk
        self.misses += 1
        path = [start_node]
        delivered_to, reason = self._walk(dst, path, {})
        walk = self._memo[key] = Walk(tuple(path), delivered_to, reason)
        readers = self._readers
        for node in walk.path:
            readers.setdefault(node, set()).add(key)
        return walk

    def _listen(self) -> None:
        """Hook the plane onto the network's FIB writes, at its first
        lookup and again after a checkpoint load replaced the hook list:
        the load's FIBs reached no hook, so nothing memoised before it
        stands."""
        if self._memo:
            self.invalidations += 1
        self._memo.clear()
        self._readers.clear()
        self._hooks = self.network.on_route_change
        self._hooks.append(self._fib_written)

    def _fib_written(self, node: str) -> None:
        """``node``'s FIB was written (the network's route-change hook):
        drop the memo entries whose walk read it -- a walk reads only the
        FIBs on its path, so every other entry still stands -- then
        re-walk the flights in the air."""
        keys = self._readers.pop(node, None)
        if keys:
            self.invalidations += 1
            memo, readers = self._memo, self._readers
            for key in keys:
                for other in memo.pop(key).path:
                    if other != node:
                        readers[other].discard(key)
        if self._flights:
            self._rewalk()

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

    def _fly(self, flight: _Flight, walk: Walk) -> None:
        """Put ``flight`` on ``walk`` and schedule its landing. Arrival
        times are the engine's own float additions, hop by hop,
        ``t[k+1] = t[k] + latency``: the instants do not depend on how
        many events carry the hops."""
        flight.walk = walk
        lands_at = flight.departs_at
        for latency in self.hop_latencies(walk):
            lands_at += latency
        flight.lands_at = lands_at
        self.network.engine.schedule_at(lands_at, lambda: self._land(flight))
        self.queued_landings += 1

    def hop_latencies(self, walk: Walk) -> tuple[float, ...]:
        """The latency of each hop of ``walk``, filled in on first use
        from the topology's per-path memo."""
        if walk.latencies is None:
            walk.latencies = self.topology.memo_hop_latencies(walk.path)
        return walk.latencies

    def _rewalk(self) -> None:
        """A FIB was written: cut each flight in the air after its last
        hop already taken -- arrival time <= now -- and walk the rest on
        the FIBs as they now stand, with ``seen`` rebuilt from the hops
        it keeps. A flight whose path moved lands at its new time; the
        old landing event goes stale."""
        now = self.network.engine.now
        for flight in self._flights:
            flown = flight.walk
            arrives_at = flight.departs_at
            if arrives_at > now:
                walk = self.walk_from(flown.path[0], flight.dst)
            else:
                for taken, latency in enumerate(flown.latencies, 1):  # type: ignore[arg-type]
                    arrives_at += latency
                    if arrives_at > now:
                        break
                else:
                    continue  # every hop taken: it lands now
                path = list(flown.path[:taken + 1])
                seen = dict(zip(path[:taken], path[1:]))
                delivered_to, reason = self._walk(flight.dst, path, seen)
                walk = Walk(tuple(path), delivered_to, reason)
            if walk.path != flown.path:
                self._fly(flight, walk)
            else:
                # Same hops, same landing time: only the verdict at the
                # last node can have changed.
                if walk.latencies is None:
                    walk.latencies = flown.latencies
                flight.walk = walk

    def _land(self, flight: _Flight) -> None:
        self.queued_landings -= 1
        if flight.lands_at > self.network.engine.now or flight not in self._flights:
            return  # stale: a re-walk moved this landing, or it was settled
        self.settle(flight)

    def settle(self, flight: _Flight) -> None:
        """Land ``flight`` now, at its landing time, as its landing event
        would; that event goes stale. Only for a caller that knows no FIB
        can change before ``flight.lands_at``."""
        del self._flights[flight]
        walk = flight.walk
        self.finish(
            ForwardResult(walk.delivered_to, walk.path, flight.lands_at, walk.reason),
            flight.on_complete,
        )

    def finish(
        self, result: ForwardResult, on_complete: Callable[[ForwardResult], None]
    ) -> None:
        """A forward ended as ``result``: count a drop, then tell
        ``on_complete``."""
        if not result.delivered and self._telemetry.enabled:
            self._telemetry.inc("dataplane.drops")
        on_complete(result)

    # ------------------------------------------------------------------
    # Instantaneous trace (control-plane view of the current FIBs)

    def snapshot_path(self, start_node: str, dst: IPv4Address) -> ForwardResult:
        """:meth:`walk_from` as a result, without advancing time.

        Used by traceroute emulation, where the question is "which path
        would a packet take *right now*".
        """
        walk = self.walk_from(start_node, dst)
        path, reason = walk.path, walk.reason
        if reason is DropReason.TTL_EXCEEDED and path[-1] in path[:-1]:
            # On FIBs that stand still the first revisit is a stable loop;
            # one closing on the last hop the TTL allows is still a loop.
            reason = DropReason.LOOP
        return ForwardResult(walk.delivered_to, path, self.network.engine.now, reason)
