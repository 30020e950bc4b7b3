"""BGP export / import policy as it stood while it was written twice.

Until PR 24 the event-driven router and the symbolic fixed point each
carried their own statement of Gao-Rexford policy, and the wire carried
``Announcement`` / ``Withdrawal`` messages the receiver unpacked into the
``Route`` it stored. This module keeps the parent's code verbatim, as the
reference ``repro.bgp.policy.exported`` / ``imported`` / ``relayed`` are
held to (``tests/test_policy_pair.py`` is the only caller):

* ``should_export`` / ``import_local_pref`` (unchanged in ``src``; copied
  so a change to the rule cannot move the reference with it);
* the message classes and ``Route.extended_by`` (as a function: the
  method is gone), which the router's export built its answer from;
* :class:`EventRouter` -- ``BgpRouter._build_export`` and the import half
  of ``BgpRouter.receive``, bodies unchanged, over a stub that holds the
  five attributes they read;
* :func:`symbolic_export` / :func:`symbolic_import` -- ``propagate()``'s
  nested ``export()`` and its hand-written import block, closure
  variables turned into parameters, with ``SymbolicGraph.local_pref``;
* :func:`valley_free_reach` -- the two-state BFS that derived the
  valley-free rule a third time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from repro.bgp.policy import Relationship
from repro.bgp.route import Route
from repro.net.addr import IPv4Prefix

# ----------------------------------------------------------------------
# bgp/policy.py (kept in src too; copied so that the reference does not
# move with the code under test)

LOCAL_PREF: dict[Relationship, int] = {
    Relationship.CUSTOMER: 300,
    Relationship.PEER: 200,
    Relationship.PROVIDER: 100,
}


def import_local_pref(relationship: Relationship) -> int:
    """LOCAL_PREF for a route learned over a session of this type."""
    if relationship is Relationship.COLLECTOR:
        raise ValueError("collector sessions never import routes")
    return LOCAL_PREF[relationship]


def should_export(learned_over: Relationship | None, export_over: Relationship) -> bool:
    if export_over is Relationship.COLLECTOR:
        return True  # collectors receive the full table
    if learned_over is None:
        return True  # originate to everyone
    if learned_over is Relationship.CUSTOMER:
        return True  # customer routes go to everyone
    # Peer/provider routes are only exported to customers.
    return export_over is Relationship.CUSTOMER


# ----------------------------------------------------------------------
# bgp/messages.py, Route.extended_by, and the router's two halves


@dataclass(frozen=True, slots=True)
class Announcement:
    sender: str
    prefix: IPv4Prefix
    as_path: tuple[int, ...]
    origin_node: str
    med: int = 0
    cause: int = 0


@dataclass(frozen=True, slots=True)
class Withdrawal:
    sender: str
    prefix: IPv4Prefix
    cause: int = 0


def extended_by(route: Route, asn: int, prepend: int = 0) -> Route:
    if prepend < 0:
        raise ValueError(f"prepend must be >= 0, got {prepend}")
    return replace(route, as_path=(asn,) * (1 + prepend) + route.as_path)


@dataclass
class StubSession:
    remote: str
    relationship: Relationship


class EventRouter:
    """The attributes ``_build_export`` and ``receive`` read, and the two
    bodies. ``_origins`` values need ``exports_to`` / ``prepend`` / ``med``
    (:class:`OriginConfig` below, the parent's)."""

    def __init__(self, node_id, asn, sessions, origins):
        self.node_id = node_id
        self.asn = asn
        self.sessions = sessions
        self._origins = origins
        self._current_cause = 0

    def _build_export(self, session, prefix, best):
        cause = self._current_cause
        withdrawal = Withdrawal(sender=self.node_id, prefix=prefix, cause=cause)
        if best is None:
            return withdrawal
        med = 0
        if best.learned_from is None:
            # Locally originated: apply per-origin prepending/neighbor
            # scope and MED.
            config = self._origins.get(prefix)
            if config is None or not config.exports_to(session.remote):
                return withdrawal
            exported = extended_by(best, self.asn, prepend=config.prepend)
            med = config.med
        else:
            # Transit route: sender-side loop suppression plus valley-free
            # export policy.
            if best.learned_from == session.remote:
                return withdrawal
            learned_over = self.sessions[best.learned_from].relationship
            if not should_export(learned_over, session.relationship):
                return withdrawal
            exported = extended_by(best, self.asn)
        return Announcement(
            sender=self.node_id,
            prefix=prefix,
            as_path=exported.as_path,
            origin_node=best.origin_node,
            med=med,
            cause=cause,
        )

    def receive_import(self, update) -> Route | None:
        """What ``receive`` put in the Adj-RIB-In for ``update`` (None:
        it withdrew the neighbor's entry instead)."""
        if isinstance(update, Announcement):
            if self.asn in update.as_path:
                # AS-path loop: reject, treating the announcement as an
                # implicit withdrawal of whatever this neighbor sent before.
                return None
            else:
                session = self.sessions[update.sender]
                route = Route(
                    prefix=update.prefix,
                    as_path=update.as_path,
                    learned_from=update.sender,
                    local_pref=import_local_pref(session.relationship),
                    origin_node=update.origin_node,
                    med=update.med,
                )
                return route
        else:
            return None


@dataclass(frozen=True, slots=True)
class OriginConfig:
    prepend: int = 0
    neighbors: frozenset[str] | None = None
    med: int = 0

    def exports_to(self, remote: str) -> bool:
        return self.neighbors is None or remote in self.neighbors


# ----------------------------------------------------------------------
# the symbolic fixed point's copy


def local_pref(graph, node: str, neighbor: str) -> int:
    """LOCAL_PREF ``node`` assigns to routes imported from ``neighbor``."""
    override = graph.preferences.get(node)
    if override is not None and neighbor in override:
        return override[neighbor]
    return import_local_pref(graph.adjacency[node][neighbor])


def symbolic_export(graph, origins, best, prefix, sender: str, remote: str) -> Route | None:
    """What ``sender`` advertises to ``remote``, mirroring
    :meth:`BgpRouter._build_export` (None = withdrawal/no route)."""
    route = best.get(sender)
    if route is None:
        return None
    relationship = graph.adjacency[sender][remote]
    if route.learned_from is None:
        config = origins.get(sender)
        if config is None or not (config.neighbors is None or remote in config.neighbors):
            return None
        as_path = (graph.asn[sender],) * (1 + config.prepend)
        med = config.med or 0
    else:
        if route.learned_from == remote:
            return None
        learned_over = graph.adjacency[sender][route.learned_from]
        if not should_export(learned_over, relationship):
            return None
        as_path = (graph.asn[sender],) + route.as_path
        med = 0
    return Route(prefix=prefix, as_path=as_path, learned_from=sender,
                 local_pref=0, origin_node=route.origin_node, med=med)


def symbolic_import(graph, prefix, node: str, neighbor: str, advertised: Route | None) -> Route | None:
    """The body of ``propagate()``'s per-<node, neighbor> loop: the entry
    it wrote to ``new_candidates[node][neighbor]``, None where it
    ``continue``d."""
    relationship = graph.adjacency[node][neighbor]
    if relationship is Relationship.COLLECTOR:
        return None  # collector sessions never import routes
    if advertised is None:
        return None
    if graph.asn[node] in advertised.as_path:
        return None  # AS-path loop rejection
    return Route(
        prefix=prefix,
        as_path=advertised.as_path,
        learned_from=neighbor,
        local_pref=local_pref(graph, node, neighbor),
        origin_node=advertised.origin_node,
        med=advertised.med,
    )


# ----------------------------------------------------------------------
# the reachability walk's copy


def valley_free_reach(graph, origin: str, neighbors: frozenset[str] | None) -> set[str]:
    # state: (node, downhill_only)
    seen: set[tuple[str, bool]] = {(origin, False)}
    queue = deque([(origin, False)])
    while queue:
        node, downhill = queue.popleft()
        scope = neighbors if node == origin else None
        for neighbor, relationship in graph.adjacency[node].items():
            if relationship is Relationship.COLLECTOR:
                continue
            if scope is not None and neighbor not in scope:
                continue  # the origin exports its own route here only
            if relationship is Relationship.CUSTOMER:
                state = (neighbor, True)
            elif downhill:
                continue  # peer/provider export of a non-customer route: valley
            else:
                # crossing sideways ends the ascent, crossing up continues it
                state = (neighbor, relationship is not Relationship.PROVIDER)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return {node for node, _ in seen}
