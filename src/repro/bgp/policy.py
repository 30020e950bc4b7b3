"""Gao-Rexford routing policies.

Import policy assigns LOCAL_PREF from the business relationship of the
session a route arrives on (customer routes most preferred, then peer,
then provider). Export policy enforces valley-free routing: routes learned
from a customer are exported to everyone; routes learned from a peer or a
provider are exported only to customers.

Appendix C.1 of the paper explains most of proactive-prepending's lost
control with exactly these preferences ("the other route is preferred by
standard BGP policy, e.g. it was via a customer rather than a peer"), so
the simulator implements them verbatim -- and once: :func:`exported`
(what a neighbor hears) and :func:`imported` (what it keeps of that) are
the policy of the event-driven router and of the symbolic fixed point
alike, and :func:`relayed` is their projection onto reachability.
"""

from __future__ import annotations

import enum

from repro.bgp.route import Route


class Relationship(enum.Enum):
    """The relationship of a session, from the perspective of one router."""

    CUSTOMER = "customer"  # the neighbor is my customer
    PEER = "peer"          # settlement-free peer
    PROVIDER = "provider"  # the neighbor is my provider
    COLLECTOR = "collector"  # route-collector feed (export-everything, import-nothing)

    def inverse(self) -> "Relationship":
        """The same link as seen from the other end."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return self


#: LOCAL_PREF assigned on import by relationship. Customer routes earn
#: revenue, peer routes are free, provider routes cost money.
LOCAL_PREF: dict[Relationship, int] = {
    Relationship.CUSTOMER: 300,
    Relationship.PEER: 200,
    Relationship.PROVIDER: 100,
}

#: LOCAL_PREF for locally originated routes (always preferred).
LOCAL_ORIGIN_PREF = 400


def should_export(learned_over: Relationship | None, export_over: Relationship) -> bool:
    """Valley-free export rule.

    ``learned_over`` is the relationship of the session the best route was
    learned on (None for locally originated routes). ``export_over`` is the
    relationship of the session we are deciding whether to export on.
    """
    if export_over is Relationship.COLLECTOR:
        return True  # collectors receive the full table
    if learned_over is None:
        return True  # originate to everyone
    if learned_over is Relationship.CUSTOMER:
        return True  # customer routes go to everyone
    # Peer/provider routes are only exported to customers.
    return export_over is Relationship.CUSTOMER


#: LOCAL_PREF the far end of a session assigns, keyed by the relationship
#: the exporting end sees (a collector keeps nothing: 0).
_FAR_END_PREF = {rel: LOCAL_PREF.get(rel.inverse(), 0) for rel in Relationship}


def exported(
    route: Route, sender: str, asn: int, origin, learned_over: Relationship | None,
    remote: str, export_over: Relationship,
) -> Route | None:
    """What ``remote`` hears when ``sender`` (AS ``asn``) has selected
    ``route``: the route as ``remote`` would store it, or None (nothing
    advertised, i.e. a withdrawal of whatever was).

    A locally originated route goes out under ``origin``, its
    origination config (``prepend`` / ``neighbors`` / ``med``): to the
    neighbors in scope only, the ASN once more per prepend, with the
    config's MED. A route learned over ``learned_over`` is never sent
    back where it came from, follows the valley-free rule, and has its
    MED reset (MED is non-transitive).
    """
    if route.learned_from is None:
        if origin is None or not (origin.neighbors is None or remote in origin.neighbors):
            return None
        as_path = (asn,) * (1 + origin.prepend)
        med = origin.med or 0
    else:
        if route.learned_from == remote or not should_export(learned_over, export_over):
            return None
        as_path = (asn,) + route.as_path
        med = 0
    return Route(route.prefix, as_path, sender, _FAR_END_PREF[export_over], route.origin_node, med)


def imported(
    route: Route, asn: int, import_over: Relationship, local_pref: int | None = None
) -> Route | None:
    """What a router of AS ``asn`` keeps of ``route``, heard over
    ``import_over``: nothing from a collector session, nothing when its
    own ASN is in the path (an implicit withdrawal of what the neighbor
    sent before), otherwise the route under ``local_pref`` (None: the
    relationship's) -- the very object when it carries that already, as
    every route :func:`exported` wrote for this end of the session does.
    """
    if import_over is Relationship.COLLECTOR or asn in route.as_path:
        return None
    if local_pref is None:
        local_pref = LOCAL_PREF[import_over]
    if route.local_pref == local_pref:
        return route
    return Route(route.prefix, route.as_path, route.learned_from, local_pref,
                 route.origin_node, route.med)


def relayed(learned_over: Relationship | None, export_over: Relationship) -> Relationship | None:
    """The pair without the routes, for reachability walks: what the far
    end of an ``export_over`` session learns a route over when the near
    end learned it over ``learned_over`` (None: originated it) -- or None,
    when the route is not exported there or a collector would hear it.
    """
    if export_over is Relationship.COLLECTOR or not should_export(learned_over, export_over):
        return None
    return export_over.inverse()
