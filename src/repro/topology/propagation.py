"""Symbolic announcement propagation.

Computes the stable routing state a set of originations converges to —
*without running the event engine*. The engine here is a synchronous
SPVP evaluation: every router simultaneously recomputes its best route
from its neighbors' previous-round exports, using the *simulator's own*
decision process (:func:`repro.bgp.route.select_best`) and the router's
own policy pair (:func:`repro.bgp.policy.exported`: what a neighbor
hears; :func:`repro.bgp.policy.imported`: what it keeps of that). Those
are the very functions :class:`repro.bgp.router.BgpRouter` calls, so the
two engines share policy by construction and can differ in timing only:
for Gao-Rexford-compliant worlds the stable state is unique
(Griffin–Shepherd–Wilfong), so the symbolic fixed point equals whatever
the asynchronous event simulation converges to, message timing
notwithstanding.

When the evaluation does *not* stabilize, the synchronous state
sequence must revisit a state (the state space is finite) — a proven
persistent oscillation under a fair activation schedule, i.e. a dispute
wheel. The propagation result reports that instead of looping forever,
which is how the VER211 dispute-wheel check works.

Per-AS preference overrides (``preferences``) replace the
relationship-derived LOCAL_PREF for specific (node, neighbor) pairs, so
fixture worlds can express BAD-GADGET-style policies that oscillate
without any customer-cone cycle.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bgp.policy import LOCAL_ORIGIN_PREF, Relationship, exported, imported, relayed
from repro.bgp.route import Route, select_best
from repro.net.addr import IPv4Prefix
from repro.topology.generator import Topology

if TYPE_CHECKING:
    # Plans are read by attribute only; importing them at runtime would
    # put this solver above the core package it sits below.
    from repro.core.plan import Origination
    from repro.topology.testbed import CdnDeployment


@dataclass(slots=True)
class SymbolicGraph:
    """The static view of a network the propagation runs over."""

    #: node -> ASN
    asn: dict[str, int]
    #: node -> {neighbor: relationship of the *neighbor* from node's view}
    adjacency: dict[str, dict[str, Relationship]]
    #: optional per-(node, neighbor) LOCAL_PREF overrides
    preferences: dict[str, dict[str, int]] = field(default_factory=dict)

    @classmethod
    def from_topology(
        cls, topology: Topology,
        preferences: dict[str, dict[str, int]] | None = None,
    ) -> "SymbolicGraph":
        asn = {node: info.asn for node, info in topology.ases.items()}
        return cls(
            asn=asn, adjacency=topology.adjacency, preferences=dict(preferences or {})
        )


@dataclass(slots=True)
class PropagationResult:
    """The symbolic fixed point for one prefix."""

    prefix: IPv4Prefix
    #: node -> selected best route (absent: no route)
    best: dict[str, Route]
    #: node -> {neighbor: route that neighbor's export left in the
    #: node's Adj-RIB-In at the fixed point}
    candidates: dict[str, dict[str, Route]]
    #: False when the synchronous evaluation revisited a state without
    #: stabilizing — a proven dispute wheel; ``best``/``candidates``
    #: then hold the state at detection time, not a fixed point.
    stable: bool
    rounds: int
    #: nodes whose best route was still changing when the oscillation
    #: was detected (empty for stable results)
    oscillating: tuple[str, ...] = ()

    def origin_of(self, node: str) -> str | None:
        route = self.best.get(node)
        return route.origin_node if route is not None else None

    def reached(self) -> set[str]:
        """Nodes holding any route for the prefix (best or candidate)."""
        nodes = set(self.best)
        for node, per_neighbor in self.candidates.items():
            if per_neighbor:
                nodes.add(node)
        return nodes

    def carried_links(self) -> set[frozenset[str]]:
        """Links over which the prefix is advertised at the fixed point.

        A link carries the prefix when either end's Adj-RIB-In holds a
        route from the other end; a fault on any *other* link provably
        cannot change routing for this prefix (nothing it transports
        mentions the prefix, and export decisions are link-local).
        """
        links: set[frozenset[str]] = set()
        for node, per_neighbor in self.candidates.items():
            for neighbor in per_neighbor:
                links.add(frozenset((node, neighbor)))
        return links


def propagate(
    graph: SymbolicGraph,
    originations: Iterable[Origination],
    prefix: IPv4Prefix,
) -> PropagationResult:
    """Run the synchronous SPVP evaluation for one prefix to its fixed
    point (or to a proven oscillation).

    ``originations`` may cover several prefixes; only those matching
    ``prefix`` participate.
    """
    origins: dict[str, Origination] = {
        o.node: o for o in originations if o.prefix == prefix
    }
    for node in origins:
        if node not in graph.asn:
            raise KeyError(f"origination at unknown node {node!r}")

    local: dict[str, Route] = {
        node: Route(prefix, (), None, LOCAL_ORIGIN_PREF, node) for node in origins
    }
    nodes = sorted(graph.asn)
    best: dict[str, Route] = dict(local)
    candidates: dict[str, dict[str, Route]] = {node: {} for node in nodes}

    def state_key() -> tuple:
        return tuple(
            (node, route.as_path, route.learned_from)
            for node, route in sorted(best.items())
        )

    cap = 4 * len(nodes) + 16
    seen_states = {state_key()}
    rounds = 0
    while rounds < cap:
        rounds += 1
        new_candidates: dict[str, dict[str, Route]] = {node: {} for node in nodes}
        for node in nodes:
            asn = graph.asn[node]
            preferences = graph.preferences.get(node, {})
            for neighbor in sorted(graph.adjacency[node]):
                route = best.get(neighbor)
                if route is None:
                    continue
                links = graph.adjacency[neighbor]
                heard = exported(
                    route, neighbor, graph.asn[neighbor], origins.get(neighbor),
                    links.get(route.learned_from), node, links[node],
                )
                if heard is None:
                    continue
                kept = imported(
                    heard, asn, graph.adjacency[node][neighbor], preferences.get(neighbor)
                )
                if kept is not None:
                    new_candidates[node][neighbor] = kept
        new_best: dict[str, Route] = {}
        for node in nodes:
            chosen = select_best(
                list(new_candidates[node].values())
                + ([local[node]] if node in local else [])
            )
            if chosen is not None:
                new_best[node] = chosen
        changed = new_best != best
        previous_best, best, candidates = best, new_best, new_candidates
        if not changed:
            return PropagationResult(
                prefix=prefix, best=best, candidates=candidates,
                stable=True, rounds=rounds,
            )
        key = state_key()
        if key in seen_states:
            break
        seen_states.add(key)
    # No fixed point: the synchronous states revisited one -- a proven
    # oscillation -- or hit the cap, a belt over those braces.
    return PropagationResult(
        prefix=prefix, best=best, candidates=candidates, stable=False, rounds=rounds,
        oscillating=tuple(sorted(
            node for node in nodes if best.get(node) != previous_best.get(node)
        )),
    )


def catchment_of(
    deployment: CdnDeployment,
    results: Iterable[PropagationResult],
    nodes: Iterable[str],
) -> dict[str, str | None]:
    """node -> site under the given per-prefix fixed points, resolved
    longest-prefix-first (the specific prefix wins over the superprefix)
    as forwarding would; None where no planned prefix reaches the node."""
    ordered = sorted(results, key=lambda result: result.prefix.length, reverse=True)

    def resolve(node: str) -> str | None:
        for result in ordered:
            origin = result.origin_of(node)
            if origin is not None:
                return deployment.site_of_node(origin)
        return None

    return {node: resolve(node) for node in nodes}


def solve_plan(
    graph: SymbolicGraph,
    originations: Iterable[Origination],
    solved: dict[tuple, PropagationResult],
) -> dict[IPv4Prefix, PropagationResult]:
    """One fixed point per prefix the plan announces, in prefix order
    (:func:`propagate`'s one caller). A later origination replaces an
    earlier one at the same node, as ``BgpRouter.originate`` does.
    ``solved`` memoises over one graph: plans that share a prefix's
    originations, in any announce order, solve it once."""
    per_prefix: dict[IPv4Prefix, dict[str, Origination]] = {}
    for origination in originations:
        per_prefix.setdefault(origination.prefix, {})[origination.node] = origination
    results = {}
    for prefix in sorted(per_prefix):
        announced = per_prefix[prefix].values()
        key = (prefix, frozenset(announced))
        if key not in solved:
            solved[key] = propagate(graph, announced, prefix)
        results[prefix] = solved[key]
    return results


def settled_catchment(
    deployment: CdnDeployment,
    originations: Iterable[Origination],
    nodes: Iterable[str] | None = None,
) -> dict[str, str | None]:
    """The catchment the plan ``originations`` converges to: one fixed
    point per planned prefix, read through :func:`catchment_of`.

    ``nodes`` defaults to the web-client ASes (the §5.1 population).
    Raises ``ValueError`` (prefix + oscillating nodes) when a prefix has
    no stable state to report.
    """
    graph = SymbolicGraph.from_topology(deployment.topology)
    results = solve_plan(graph, originations, {}).values()
    for result in results:
        if not result.stable:
            raise ValueError(
                f"{result.prefix} has no settled state: routing oscillates at "
                f"{', '.join(result.oscillating)}"
            )
    if nodes is None:
        nodes = [info.node_id for info in deployment.topology.web_client_ases()]
    return catchment_of(deployment, results, nodes)


def valley_free_reach(
    graph: SymbolicGraph, origin: str, neighbors: frozenset[str] | None
) -> set[str]:
    """Nodes an announcement originated at ``origin`` and exported to
    ``neighbors`` (None: every session) can reach over valley-free
    export chains.

    A BFS over <node, relationship the route was learned over> that
    steps by the routers' own policy (:func:`repro.bgp.policy.relayed`).
    On a Gao-Rexford world this is the set of nodes a lone
    :func:`propagate` offers the route to, computed without selecting
    best paths; a ``preferences`` override can hide a customer route
    behind a less exportable one, so there it is an upper bound.
    """
    start: tuple[str, Relationship | None] = (origin, None)
    seen = {start}
    queue = deque(seen)
    while queue:
        node, learned_over = queue.popleft()
        scope = neighbors if node == origin else None
        for neighbor, relationship in graph.adjacency[node].items():
            if scope is not None and neighbor not in scope:
                continue  # the origin exports its own route here only
            learned_there = relayed(learned_over, relationship)
            if learned_there is None:
                continue
            state = (neighbor, learned_there)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return {node for node, _ in seen}


def ambiguous_ties(result: PropagationResult, node: str) -> list[Route]:
    """Candidate routes at ``node`` that tie its best on every decisive
    step of the BGP decision process.

    A returned route loses only on the final arbitrary tie-break
    (lowest neighbor id), i.e. (LOCAL_PREF, AS-path length, comparable
    MED) cannot separate it from the selected route — the catchment at
    this node is *ambiguous*: a different router id ordering, session
    age, or real-world tie-break would route elsewhere.
    """
    best = result.best.get(node)
    if best is None:
        return []
    ties: list[Route] = []
    for route in result.candidates.get(node, {}).values():
        if route == best:
            continue
        if route.local_pref != best.local_pref:
            continue
        if len(route.as_path) != len(best.as_path):
            continue
        med_comparable = (
            route.as_path and best.as_path
            and route.as_path[0] == best.as_path[0]
        )
        if med_comparable and route.med != best.med:
            continue
        ties.append(route)
    return ties
