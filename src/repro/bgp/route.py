"""BGP route representation.

A :class:`Route` is an immutable record of one path to one prefix as seen
at one router: the AS path, the session it was learned on, and the
LOCAL_PREF assigned by import policy. Routes are compared by the standard
BGP decision process implemented in :func:`better`. An :class:`Update` is
what one router tells a neighbor about one prefix: the route, as the
neighbor will hold it, or nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addr import IPv4Prefix


@dataclass(frozen=True, slots=True)
class Route:
    """One candidate path to ``prefix``.

    Attributes:
        prefix: destination prefix.
        as_path: AS-level path, nearest AS first; the origin AS is last.
            Prepending repeats the origin ASN.
        learned_from: node id of the neighbor router this was learned from,
            or None for locally originated routes.
        local_pref: assigned on import from the session relationship
            (customer > peer > provider, per Gao-Rexford).
        origin_node: node id of the router that originated the route; for
            CDN prefixes this identifies the *site* even though all sites
            share one ASN.
        med: Multi-Exit Discriminator set by the announcing neighbor AS;
            compared (lower preferred) only between routes whose AS path
            starts with the same neighbor AS, and never re-exported --
            the §4 alternative to prepending for supporting neighbors.
    """

    prefix: IPv4Prefix
    as_path: tuple[int, ...]
    learned_from: str | None
    local_pref: int
    origin_node: str
    med: int = 0


@dataclass(frozen=True, slots=True)
class Update:
    """One BGP update on the wire: ``sender`` now offers ``route`` for
    ``prefix``, or nothing (``route is None``: a withdrawal).

    ``route`` is written by :func:`repro.bgp.policy.exported` in the form
    the receiver stores it: learned from the sender, the sender's ASN
    first in the path, the receiver's LOCAL_PREF. ``cause`` is the
    provenance id of the root action the update descends from (0 =
    uncaused); it travels hop to hop for ``repro explain`` and the
    protocol never reads it.
    """

    sender: str
    prefix: IPv4Prefix
    route: Route | None
    cause: int


def better(a: Route, b: Route) -> bool:
    """BGP decision process: True if ``a`` is preferred over ``b``.

    Order of comparison (mirroring the standard process, minus the IGP
    step that does not apply to a per-AS model):

    1. higher LOCAL_PREF;
    2. shorter AS path (this is where prepending takes effect);
    3. lower MED, compared only when both routes come via the same
       neighbor AS (as RFC 4271 prescribes; with mixed-neighbor MEDs
       this step is skipped, so the comparison stays total for the
       configurations this simulator produces);
    4. deterministic tie-break on the neighbor the route was learned from
       (stands in for lowest-router-id / oldest-route tie-breaking).
    """
    if a.local_pref != b.local_pref:
        return a.local_pref > b.local_pref
    if len(a.as_path) != len(b.as_path):
        return len(a.as_path) < len(b.as_path)
    if (
        a.as_path
        and b.as_path
        and a.as_path[0] == b.as_path[0]
        and a.med != b.med
    ):
        return a.med < b.med
    return (a.learned_from or "") < (b.learned_from or "")


def select_best(routes: list[Route]) -> Route | None:
    """The most preferred route among ``routes`` (None if empty)."""
    best: Route | None = None
    for route in routes:
        if best is None or better(route, best):
            best = route
    return best
