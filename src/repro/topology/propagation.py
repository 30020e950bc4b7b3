"""Symbolic announcement propagation.

Computes the stable routing state a set of originations converges to --
*without running the event engine* -- using the *simulator's own*
decision process (:func:`repro.bgp.route.select_best`) and the router's
own policy (:mod:`repro.bgp.policy`): :func:`~repro.bgp.policy.exported`
writes what a neighbor hears of an origination, and a learned route
goes where :func:`~repro.bgp.policy.relayed` sends it, under the far
end's ``LOCAL_PREF``, unless :func:`~repro.bgp.policy.looped` says the
neighbor's ASN is on its path -- the rules
:func:`~repro.bgp.policy.imported` and
:class:`repro.bgp.router.BgpRouter` apply, so the settled answers and
the event engine share policy by construction and can differ in timing
only.

Two solvers, one per kind of world:

* **Gao-Rexford worlds** (no ``preferences``): LOCAL_PREF comes from
  the relationship alone, and every export makes a route strictly worse
  in (LOCAL_PREF desc, AS-path length asc) -- a customer route reaches
  a provider as a longer customer route, anything else arrives as a
  peer or provider route. The algebra is strictly monotone, so there is
  one stable state (Griffin-Shepherd-Wilfong), and a rank-ordered pass
  finds it: each AS settles at the best rank its settled neighbors
  offer it, Dijkstra-style. Offers are plain tuples read from per-node
  tables derived once per graph (:meth:`SymbolicGraph.offer_tables`); a
  :class:`~repro.bgp.route.Route` is built only for the caller that
  keeps one (:func:`propagate`). The same pass with one origination
  answers "which path does traffic toward AS X take" (:func:`path_to`,
  building no route at all), the question the §5.1 proximity filter,
  the RTT tables and the probe requests ask through
  :meth:`~repro.topology.generator.Topology.settled_latency`.
* **Worlds with preference overrides**: per-(node, neighbor) LOCAL_PREF
  overrides can express BAD-GADGET-style policies that oscillate
  without any customer-cone cycle. There a synchronous SPVP evaluation
  (:func:`spvp`) runs: every router recomputes its best route from its
  neighbors' previous-round exports. When it does *not* stabilize, the
  state sequence must revisit a state (the state space is finite) -- a
  proven persistent oscillation under a fair activation schedule, i.e.
  a dispute wheel. The result reports that instead of looping forever,
  which is how the VER211 dispute-wheel check works.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING

from repro.bgp.policy import (
    LOCAL_ORIGIN_PREF,
    LOCAL_PREF,
    Relationship,
    exported,
    imported,
    looped,
    relayed,
)
from repro.bgp.route import Route, select_best
from repro.net.addr import IPv4Prefix

if TYPE_CHECKING:
    # Plans are read by attribute only; importing them at runtime would
    # put this solver above the core package it sits below. The topology
    # imports this module for its settled-latency memo.
    from repro.core.plan import Origination
    from repro.topology.generator import Topology
    from repro.topology.testbed import CdnDeployment

#: what the one-origin question announces: a stand-in prefix, to every
#: neighbor, unprepended and without a MED
_ANY_PREFIX = IPv4Prefix.parse("0.0.0.0/0")
_TO_EVERY_NEIGHBOR = SimpleNamespace(prepend=0, neighbors=None, med=None)

#: the relationships a route can be held over (None: originated)
_LEARNED_OVER = (None, Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)
#: the rank of an origination: better than any offer a neighbor makes
_ORIGINATED = (-LOCAL_ORIGIN_PREF, 0)


@dataclass(slots=True)
class SymbolicGraph:
    """The static view of a network the propagation runs over."""

    #: node -> ASN
    asn: dict[str, int]
    #: node -> {neighbor: relationship of the *neighbor* from node's view}
    adjacency: dict[str, dict[str, Relationship]]
    #: optional per-(node, neighbor) LOCAL_PREF overrides
    preferences: dict[str, dict[str, int]] = field(default_factory=dict)
    #: node -> {learned over: ((neighbor, export over, what the neighbor
    #: learns the route over, minus its LOCAL_PREF for it, its ASN), ...)}:
    #: where a route held over each relationship is offered, derived
    #: through :func:`repro.bgp.policy.relayed` and ``LOCAL_PREF`` on
    #: first use
    _offer_tables: dict | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_topology(
        cls, topology: Topology,
        preferences: dict[str, dict[str, int]] | None = None,
    ) -> "SymbolicGraph":
        """The graph of ``topology``; without ``preferences`` the one
        kept in the topology's settled-routing memo, so its offer
        tables are derived once per topology."""
        if preferences:
            asn = {node: info.asn for node, info in topology.ases.items()}
            return cls(asn=asn, adjacency=topology.adjacency, preferences=dict(preferences))
        memo = topology.static_routes_cache()
        graph = memo.get(None)
        if graph is None:
            asn = {node: info.asn for node, info in topology.ases.items()}
            graph = memo[None] = cls(asn=asn, adjacency=topology.adjacency)
        return graph

    def offer_tables(self) -> dict[str, dict[Relationship | None, tuple]]:
        if self._offer_tables is None:
            self._offer_tables = {}
            for node, links in self.adjacency.items():
                per_learned = self._offer_tables[node] = {}
                for learned in _LEARNED_OVER:
                    row = []
                    for neighbor, relationship in links.items():
                        far = relayed(learned, relationship)
                        if far is not None:
                            row.append(
                                (neighbor, relationship, far, -LOCAL_PREF[far], self.asn[neighbor])
                            )
                    per_learned[learned] = tuple(row)
        return self._offer_tables


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
    #: SPVP rounds run (0: solved by the rank-ordered pass)
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


def _origins(
    graph: SymbolicGraph, originations: Iterable[Origination], prefix: IPv4Prefix
) -> dict[str, Origination]:
    origins = {o.node: o for o in originations if o.prefix == prefix}
    for node in origins:
        if node not in graph.asn:
            raise KeyError(f"origination at unknown node {node!r}")
    return origins


def _local(origins: dict[str, Origination], prefix: IPv4Prefix) -> dict[str, Route]:
    return {node: Route(prefix, (), None, LOCAL_ORIGIN_PREF, node) for node in origins}


def _adj_rib_in(
    graph: SymbolicGraph, nodes: list[str], origins: dict[str, Origination],
    best: dict[str, Route],
) -> dict[str, dict[str, Route]]:
    """node -> {neighbor: what the node keeps of the neighbor's export of
    its ``best`` route}, both in sorted order."""
    candidates: dict[str, dict[str, Route]] = {}
    for node in nodes:
        asn = graph.asn[node]
        preferences = graph.preferences.get(node, {})
        kept_here = candidates[node] = {}
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
                kept_here[neighbor] = kept
    return candidates


def _settle(
    graph: SymbolicGraph, origins: dict[str, Origination], prefix: IPv4Prefix
) -> dict[str, tuple]:
    """node -> the offer it settles on in the one stable state of a world
    without preference overrides, by the rank-ordered pass: an offer is
    ⟨rank, sender, learned over, AS path, MED, origin node⟩, an
    origination's ⟨origin rank, None, None, (), 0, itself⟩ (build its
    :class:`Route` with :func:`_route`).

    Ranks are (-LOCAL_PREF, AS-path length). An AS is settled when the
    smallest rank still waiting is the best any settled neighbor offers
    it: every route it could still hear comes from an AS of that rank or
    worse, and an export makes a route strictly worse, so nothing can
    beat the offers in hand. Its best is the lowest sender among the
    offers at that rank, as :func:`select_best` picks it, or
    :func:`select_best` itself over them in neighbor order where their
    MEDs differ.

    Policy is :mod:`repro.bgp.policy`'s: an origination is written by
    :func:`exported` (prepend, scope, MED) per neighbor; a learned route
    goes where :meth:`SymbolicGraph.offer_tables` (``relayed``) sends it,
    with the sender's ASN prepended, the far end's LOCAL_PREF and no MED,
    and a neighbor whose ASN is on the path keeps nothing of it
    (:func:`looped`). Split horizon needs no test: the sender's own
    sender is settled already.
    """
    asn, tables = graph.asn, graph.offer_tables()
    settled = {node: (_ORIGINATED, None, None, (), 0, node) for node in origins}
    #: unsettled node -> [best rank offered, {sender: offer at that rank}]
    offers: dict[str, list] = {}
    #: rank -> nodes offered a route at that rank; ``ranks`` heaps the keys
    waiting: dict[tuple[int, int], list[str]] = {}
    ranks: list[tuple[int, int]] = []

    def hold(neighbor: str, offer: tuple) -> None:
        rank = offer[0]
        held = offers.get(neighbor)
        if held is None or rank < held[0]:
            offers[neighbor] = [rank, {offer[1]: offer}]
            bucket = waiting.get(rank)
            if bucket is None:
                bucket = waiting[rank] = []
                heapq.heappush(ranks, rank)
            bucket.append(neighbor)
        elif rank == held[0]:
            held[1][offer[1]] = offer

    for node, origination in origins.items():
        local = Route(prefix, (), None, LOCAL_ORIGIN_PREF, node)
        for neighbor, export_over, far, rank_pref, neighbor_asn in tables[node][None]:
            if neighbor in settled:
                continue
            heard = exported(local, node, asn[node], origination, None, neighbor, export_over)
            if heard is not None and not looped(neighbor_asn, heard.as_path):
                hold(neighbor, ((rank_pref, len(heard.as_path)), node, far,
                                heard.as_path, heard.med, node))
    while ranks:
        for node in waiting.pop(heapq.heappop(ranks)):
            if node in settled:
                continue  # settled at a better rank already
            heard_by = offers.pop(node)[1]
            if len(heard_by) == 1:
                (offer,) = heard_by.values()
            elif len({offer[4] for offer in heard_by.values()}) == 1:
                offer = heard_by[min(heard_by)]
            else:
                chosen = select_best([_route(prefix, heard_by[n]) for n in sorted(heard_by)])
                offer = heard_by[chosen.learned_from]
            settled[node] = offer
            as_path = (asn[node],) + offer[3]
            length, origin = len(as_path), offer[5]
            for neighbor, _, far, rank_pref, neighbor_asn in tables[node][offer[2]]:
                if neighbor not in settled and not looped(neighbor_asn, as_path):
                    hold(neighbor, ((rank_pref, length), node, far, as_path, 0, origin))
    return settled


def _route(prefix: IPv4Prefix, offer: tuple) -> Route:
    """The :class:`Route` a node holds when it settles on ``offer``."""
    (neg_pref, _), sender, _, as_path, med, origin = offer
    return Route(prefix, as_path, sender, -neg_pref, origin, med)


def spvp(
    graph: SymbolicGraph,
    originations: Iterable[Origination],
    prefix: IPv4Prefix,
) -> PropagationResult:
    """Run the synchronous SPVP evaluation for one prefix to its fixed
    point (or to a proven oscillation): the solver for worlds with
    preference overrides, and the reference the rank-ordered pass is
    tested against."""
    origins = _origins(graph, originations, prefix)
    local = _local(origins, prefix)
    nodes = sorted(graph.asn)
    best: dict[str, Route] = dict(local)

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
        new_candidates = _adj_rib_in(graph, nodes, origins, best)
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


def propagate(
    graph: SymbolicGraph,
    originations: Iterable[Origination],
    prefix: IPv4Prefix,
) -> PropagationResult:
    """The stable state ``originations`` converge to for ``prefix``: by
    the rank-ordered pass, or by :func:`spvp` where ``graph`` carries
    preference overrides (there a world may have no stable state, and
    the result then says so).

    ``originations`` may cover several prefixes; only those matching
    ``prefix`` participate.
    """
    if graph.preferences:
        return spvp(graph, originations, prefix)
    origins = _origins(graph, originations, prefix)
    best = {node: _route(prefix, offer) for node, offer in _settle(graph, origins, prefix).items()}
    candidates = _adj_rib_in(graph, sorted(graph.asn), origins, best)
    return PropagationResult(
        prefix=prefix, best=best, candidates=candidates, stable=True, rounds=0
    )


def path_to(topology: Topology, src: str, dest: str) -> list[str] | None:
    """The node path traffic from ``src`` toward AS ``dest`` takes once a
    route to ``dest`` alone has settled (``src`` and ``dest`` inclusive),
    or None where policy gives ``src`` no route.

    The pass for one origination at ``dest``, memoised as ``{node: next
    hop}`` per destination in :meth:`Topology.static_routes_cache`: it
    depends on the AS graph only, so every forwarding plane, sweep cell
    and proximity filter over the topology shares it. Sites share the
    CDN's ASN, so loop prevention leaves no site a route to another.
    """
    memo = topology.static_routes_cache()
    next_hops = memo.get(dest)
    if next_hops is None:
        if dest not in topology.ases:
            raise KeyError(f"unknown destination {dest!r}")
        settled = _settle(
            SymbolicGraph.from_topology(topology), {dest: _TO_EVERY_NEIGHBOR}, _ANY_PREFIX
        )
        next_hops = memo[dest] = {
            node: offer[1] for node, offer in settled.items() if node != dest
        }
    if src != dest and src not in next_hops:
        return None
    path = [src]
    while path[-1] != dest:
        path.append(next_hops[path[-1]])
    return path


def one_origin_solves(topology: Topology) -> int:
    """How many destinations :func:`path_to` has solved on ``topology``
    (its memo holds one ``{node: next hop}`` per destination)."""
    memo = topology.static_routes_cache()
    return len(memo) - (None in memo)


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
    (the one caller of :func:`propagate` in the package; the one-origin
    question goes through :func:`path_to`). A later origination replaces an
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
    steps by the routers' own policy (:func:`repro.bgp.policy.relayed`,
    read from :meth:`SymbolicGraph.offer_tables`).
    On a Gao-Rexford world this is the set of nodes a lone
    :func:`propagate` offers the route to, computed without selecting
    best paths; a ``preferences`` override can hide a customer route
    behind a less exportable one, so there it is an upper bound.
    """
    start: tuple[str, Relationship | None] = (origin, None)
    seen = {start}
    queue = deque(seen)
    tables = graph.offer_tables()
    while queue:
        node, learned_over = queue.popleft()
        scope = neighbors if node == origin else None
        for neighbor, _, learned_there, _, _ in tables[node][learned_over]:
            if scope is not None and neighbor not in scope:
                continue  # the origin exports its own route here only
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
