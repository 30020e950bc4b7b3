"""Static valley-free policy routing.

The dynamic BGP simulator is only exercised for the prefixes under
experiment (the CDN's and the hypergiants'). For everything else --
reaching probe targets, estimating the §5.1 proximity RTTs -- we solve
Gao-Rexford routing to a destination in closed form with the standard
three-stage algorithm:

1. *customer routes*: BFS from the destination along customer->provider
   edges (routes learned from customers, LOCAL_PREF 300);
2. *peer routes*: one peer hop from any customer-routed AS (LOCAL_PREF 200);
3. *provider routes*: Dijkstra-style relaxation downwards for ASes that
   have neither (LOCAL_PREF 100).

This matches the steady state of :mod:`repro.bgp` for a single-origin
prefix (the test suite asserts that), so the two route computations can
be used interchangeably where dynamics do not matter.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from repro.bgp.policy import Relationship
from repro.topology.generator import Topology

#: Preference classes in decreasing preference order.
CUSTOMER, PEER, PROVIDER = 0, 1, 2


@dataclass(frozen=True, slots=True)
class StaticRoute:
    """Best route from one AS toward the destination."""

    next_hop: str
    #: preference class of the selected route (CUSTOMER/PEER/PROVIDER)
    pref_class: int
    #: AS-level hop count to the destination
    hops: int


def static_routes_for(topology: Topology, dest: str) -> "StaticRoutes":
    """Solve (or fetch the memoized) routes toward ``dest``.

    A solve depends only on the AS graph, so every consumer -- the
    forwarding plane, the hitlist proximity filter, the RTT tables --
    shares one memo on the topology (see
    :meth:`Topology.static_routes_cache`) instead of re-solving per
    sweep cell."""
    cache = topology.static_routes_cache()
    routes = cache.get(dest)
    if routes is None:
        routes = cache[dest] = StaticRoutes(topology, dest)
    return routes


class StaticRoutes:
    """All-ASes best routes toward one destination node."""

    def __init__(self, topology: Topology, dest: str) -> None:
        if dest not in topology.ases:
            raise ValueError(f"unknown destination {dest!r}")
        self.topology = topology
        self.dest = dest
        self._routes: dict[str, StaticRoute] = {}
        self._solve()

    # ------------------------------------------------------------------

    def _solve(self) -> None:
        topo = self.topology
        neighbors = topo.adjacency

        # Stage 1: customer routes. An AS x has a customer route if some
        # neighbor y that is x's *customer* has one (or is the destination).
        cust: dict[str, StaticRoute] = {}
        queue: deque[tuple[str, int]] = deque([(self.dest, 0)])
        dist = {self.dest: 0}
        while queue:
            node, hops = queue.popleft()
            for other, rel in neighbors[node].items():
                # ``rel`` is what ``other`` is from ``node``'s view; the
                # route flows upward when ``other`` is node's provider.
                if rel is not Relationship.PROVIDER:
                    continue
                if other in dist:
                    continue
                dist[other] = hops + 1
                queue.append((other, hops + 1))
        # Deterministic next-hop choice: smallest (hops, node_id) customer.
        for node, hops in dist.items():
            if node == self.dest:
                continue
            best: tuple[int, str] | None = None
            for other, rel in neighbors[node].items():
                if rel is Relationship.CUSTOMER and other in dist:
                    candidate = (dist[other], other)
                    if best is None or candidate < best:
                        best = candidate
            assert best is not None
            cust[node] = StaticRoute(next_hop=best[1], pref_class=CUSTOMER, hops=hops)

        # Stage 2: peer routes, for ASes without a customer route.
        peer: dict[str, StaticRoute] = {}
        for node in topo.ases:
            if node == self.dest or node in cust:
                continue
            best = None
            for other, rel in neighbors[node].items():
                if rel is not Relationship.PEER:
                    continue
                if other == self.dest:
                    candidate = (1, other)
                elif other in cust:
                    candidate = (cust[other].hops + 1, other)
                else:
                    continue
                if best is None or candidate < best:
                    best = candidate
            if best is not None:
                peer[node] = StaticRoute(next_hop=best[1], pref_class=PEER, hops=best[0])

        # Stage 3: provider routes via Dijkstra over provider->customer
        # edges, seeded from every AS that already has a route.
        resolved: dict[str, StaticRoute] = {**cust, **peer}
        best_hops: dict[str, int] = {self.dest: 0}
        best_hops.update({node: route.hops for node, route in resolved.items()})
        heap: list[tuple[int, str, str]] = []
        for node, hops in best_hops.items():
            for other, rel in neighbors[node].items():
                # ``other`` is node's customer: node may export its best
                # route (whatever its class) down to ``other``.
                if rel is Relationship.CUSTOMER and other not in best_hops:
                    heapq.heappush(heap, (hops + 1, node, other))
        prov: dict[str, StaticRoute] = {}
        while heap:
            hops, via, node = heapq.heappop(heap)
            if node in best_hops:
                continue
            best_hops[node] = hops
            prov[node] = StaticRoute(next_hop=via, pref_class=PROVIDER, hops=hops)
            for other, rel in neighbors[node].items():
                if rel is Relationship.CUSTOMER and other not in best_hops:
                    heapq.heappush(heap, (hops + 1, node, other))

        self._routes = {**cust, **peer, **prov}

    # ------------------------------------------------------------------

    def route(self, node: str) -> StaticRoute | None:
        """Best route from ``node`` toward the destination (None at dest
        or when the destination is unreachable under policy)."""
        return self._routes.get(node)

    def reachable(self, node: str) -> bool:
        return node == self.dest or node in self._routes

    def path(self, src: str) -> list[str] | None:
        """Node-level path from ``src`` to the destination, inclusive."""
        if src == self.dest:
            return [src]
        path = [src]
        node = src
        seen = {src}
        while node != self.dest:
            route = self._routes.get(node)
            if route is None:
                return None
            node = route.next_hop
            if node in seen:
                raise RuntimeError(f"static routing loop via {node!r}")
            seen.add(node)
            path.append(node)
        return path

    def rtt_s(self, src: str) -> float | None:
        """Round-trip latency src <-> destination along the policy path.

        Uses the same path in both directions, a reasonable approximation
        for the proximity filter's purposes. Distributed networks on the
        path are latency-transparent (see ``Topology.hop_latency``).
        """
        path = self.path(src)
        if path is None:
            return None
        return 2.0 * self.topology.path_latency(path)
