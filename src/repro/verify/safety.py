"""Gao-Rexford safety analysis (VER20x).

Gao & Rexford's sufficient conditions for BGP convergence are
structural: the provider-customer digraph must be acyclic (a hierarchy,
not a loop), and routes must be exported valley-free. The simulator's
export policy (:func:`repro.bgp.policy.should_export`) enforces
valley-freeness by construction, so what remains to verify is the
*graph*: no customer cycles (VER201), a peering-connected provider-free
core (VER202), and — given both — which web clients any CDN site can
actually reach over valley-free paths (VER203).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

from repro.analysis.findings import Finding
from repro.bgp.policy import Relationship
from repro.topology.propagation import SymbolicGraph
from repro.verify import checks
from repro.verify.world import VerifyWorld


def customer_cycle_members(graph: SymbolicGraph) -> list[str]:
    """Nodes on some provider-customer cycle (empty when acyclic).

    Kahn's algorithm over the digraph with an edge provider -> customer;
    whatever cannot be topologically ordered sits on a cycle.
    """
    customers: dict[str, list[str]] = {node: [] for node in graph.asn}
    indegree: dict[str, int] = {node: 0 for node in graph.asn}
    for node, neighbors in graph.adjacency.items():
        for neighbor, relationship in neighbors.items():
            if relationship is Relationship.CUSTOMER:
                customers[node].append(neighbor)
                indegree[neighbor] += 1
    queue = deque(sorted(node for node, deg in indegree.items() if deg == 0))
    ordered = 0
    while queue:
        node = queue.popleft()
        ordered += 1
        for customer in customers[node]:
            indegree[customer] -= 1
            if indegree[customer] == 0:
                queue.append(customer)
    return sorted(node for node, deg in indegree.items() if deg > 0)


def check_gao_cycle(world: VerifyWorld, graph: SymbolicGraph) -> Iterator[Finding]:
    members = customer_cycle_members(graph)
    if members:
        yield checks.GAO_CYCLE.finding(
            f"provider-customer cycle through {checks.sample(members)}: the "
            "customer-cone hierarchy is circular, so Gao-Rexford "
            "convergence guarantees do not apply to this topology",
            world.source,
        )


def core_components(graph: SymbolicGraph) -> list[list[str]]:
    """Peering-connected components of the provider-free core.

    A provider-free AS can only reach the rest of the Internet through
    peers (it buys from nobody); if the provider-free core is not one
    peering-connected component, destinations behind one fragment are
    structurally unreachable from the others.
    """
    core = {
        node for node, neighbors in graph.adjacency.items()
        if not any(rel is Relationship.PROVIDER for rel in neighbors.values())
    }
    seen: set[str] = set()
    components: list[list[str]] = []
    for start in sorted(core):
        if start in seen:
            continue
        component: list[str] = []
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            component.append(node)
            for neighbor, relationship in graph.adjacency[node].items():
                if neighbor in core and neighbor not in seen \
                        and relationship is Relationship.PEER:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(sorted(component))
    return components


def check_core_partition(world: VerifyWorld, graph: SymbolicGraph) -> Iterator[Finding]:
    components = core_components(graph)
    if len(components) > 1:
        parts = "; ".join(checks.sample(c, limit=4) for c in components)
        yield checks.CORE_PARTITION.finding(
            f"provider-free core splits into {len(components)} "
            f"peering-disconnected fragments ({parts}): traffic cannot "
            "cross between them valley-free",
            world.source,
        )


def check_client_reach(
    world: VerifyWorld, reach: Callable[[str, frozenset[str] | None], set[str]]
) -> Iterator[Finding]:
    """VER203: clients outside every site's unscoped valley-free reach."""
    sites = world.sites()
    clients = [info.node_id for info in world.topology.web_client_ases()]
    if not sites or not clients:
        return
    reached = set().union(*(reach(world.deployment.site_node(s), None) for s in sites))
    dark = sorted(node for node in clients if node not in reached)
    if dark:
        yield checks.CLIENT_UNREACHABLE.finding(
            f"{len(dark)} web-client AS(es) no valley-free path from any "
            f"CDN site can reach: {checks.sample(dark)}; every technique will "
            "leave them without a route",
            world.source,
        )
