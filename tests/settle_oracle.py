"""The rank-ordered pass with a ``Route`` per offer, kept as the reference.

This is ``topology/propagation.py::_settle`` as it stood while every
offer was written by :func:`repro.bgp.policy.exported` and kept through
:func:`repro.bgp.policy.imported` (one ``Route`` per ⟨sender, export
class⟩ and one ``imported`` call per offer), with the offer fan-out that
``SymbolicGraph.fanout`` derived. The pass and the fan-out are moved
here verbatim; the package's pass carries offers as tuples read from
``SymbolicGraph.offer_tables`` and must settle every node exactly as
this one does (``tests/test_settle_pass.py``).
"""

import heapq

from repro.bgp.policy import LOCAL_ORIGIN_PREF, Relationship, exported, imported, relayed
from repro.bgp.route import Route, select_best

#: the relationships a route can be held over (None: originated)
_LEARNED_OVER = (None, Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)


def fanout(graph) -> dict:
    """node -> {learned over: ((export over, what the far end learns the
    route over, (neighbor, ...)), ...)}: where a route held over each
    relationship is offered, one group per relationship class."""
    result = {}
    for node, links in graph.adjacency.items():
        per_learned = result[node] = {}
        for learned in _LEARNED_OVER:
            groups: dict[Relationship, list[str]] = {}
            for neighbor, relationship in links.items():
                if relayed(learned, relationship) is not None:
                    groups.setdefault(relationship, []).append(neighbor)
            per_learned[learned] = tuple(
                (relationship, relayed(learned, relationship), tuple(neighbors))
                for relationship, neighbors in groups.items()
            )
    return result


def settle(graph, table: dict, origins: dict, prefix) -> dict[str, Route]:
    """The best routes of the one stable state of a world without
    preference overrides, by the rank-ordered pass; ``table`` is
    :func:`fanout` of ``graph`` (the graph held it, derived once)."""
    asn, adjacency = graph.asn, graph.adjacency
    best = {node: Route(prefix, (), None, LOCAL_ORIGIN_PREF, node) for node in origins}
    #: unsettled node -> [best rank offered, {neighbor: route at that rank}]
    offers: dict[str, list] = {}
    #: rank -> nodes offered a route at that rank; ``ranks`` heaps the keys
    waiting: dict[tuple[int, int], list[str]] = {}
    ranks: list[tuple[int, int]] = []

    def offer_from(node: str, route: Route) -> None:
        learned_over = adjacency[node].get(route.learned_from)
        origin = origins.get(node)
        per_neighbor = route.learned_from is None
        for export_over, far, neighbors in table[node][learned_over]:
            heard = None
            for neighbor in neighbors:
                if neighbor in best:
                    continue
                if heard is None or per_neighbor:
                    heard = exported(
                        route, node, asn[node], origin, learned_over, neighbor, export_over
                    )
                    if heard is None:
                        continue
                kept = imported(heard, asn[neighbor], far)
                if kept is None:
                    continue
                rank = (-kept.local_pref, len(kept.as_path))
                held = offers.get(neighbor)
                if held is not None and held[0] < rank:
                    continue
                if held is None or rank < held[0]:
                    offers[neighbor] = [rank, {node: kept}]
                    bucket = waiting.get(rank)
                    if bucket is None:
                        bucket = waiting[rank] = []
                        heapq.heappush(ranks, rank)
                    bucket.append(neighbor)
                else:
                    held[1][node] = kept

    for node, route in best.items():
        offer_from(node, route)
    while ranks:
        for node in waiting.pop(heapq.heappop(ranks)):
            if node in best:
                continue  # settled at a better rank already
            heard_by = offers.pop(node)[1]
            route = best[node] = select_best([heard_by[n] for n in sorted(heard_by)])
            offer_from(node, route)
    return best
