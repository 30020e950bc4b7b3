"""Route-version-keyed catchment resolution cache.

Every workload request must answer "which site serves this client right
now?". The authoritative answer is a hop-by-hop FIB walk
(:meth:`~repro.dataplane.forwarding.ForwardingPlane.snapshot_path`),
which costs a longest-prefix-match per AS hop -- far too slow to run
millions of times. But between FIB changes the answer cannot change, so
:class:`CatchmentCache` memoizes resolutions per client node and keys
the whole memo on :attr:`~repro.bgp.network.BgpNetwork.route_version`,
the monotone counter every FIB install bumps.

The hot loop is therefore one int compare plus one dict hit; the walk
only reruns for clients touched *after* a reroute invalidated the memo.
There is deliberately no partial invalidation: route_version is global,
so any FIB install anywhere flushes everything. That is conservative
(never stale) and cheap -- during convergence the cache would be churning
anyway, and in steady state the version never moves.

Liveness (dead sites) is *not* cached here: a silent site failure kills
service without touching any FIB, so the workload engine re-checks its
``dead_sites`` set per request against the cached landing site. What
*is* cached is the routing half of the verdict
(:func:`~repro.dataplane.forwarding.delivery_verdict` with nobody dead):
the loss reason and its outage class are computed once per miss, so the
per-request loop only reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataplane.forwarding import (
    CLASS_BY_REASON,
    ForwardingPlane,
    delivery_verdict,
)
from repro.net.addr import IPv4Address
from repro.topology.testbed import PROBE_SOURCE, CdnDeployment


@dataclass(frozen=True, slots=True)
class Resolution:
    """Where the current FIBs deliver one client's requests."""

    #: CDN site name the request lands at (None when dropped or off-net)
    site: str | None
    #: delivering node (a non-site node means an off-net covering prefix)
    node: str | None
    #: why routing alone loses the request ("no-route" | "loop" |
    #: "ttl-exceeded" | "off-net"); None when it reaches a CDN site
    reason: str | None = None
    #: ``CLASS_BY_REASON[reason]``, precomputed for the per-request loop
    loss_class: str | None = None


class CatchmentCache:
    """Memoized client -> :class:`Resolution`, flushed on route changes."""

    __slots__ = (
        "plane", "deployment", "dst", "hits", "misses", "invalidations",
        "_cache", "_version",
    )

    def __init__(
        self,
        plane: ForwardingPlane,
        deployment: CdnDeployment,
        dst: IPv4Address = PROBE_SOURCE,
    ) -> None:
        self.plane = plane
        self.deployment = deployment
        self.dst = dst
        self.hits = 0
        self.misses = 0
        #: times the memo was flushed because route_version moved
        self.invalidations = 0
        self._cache: dict[str, Resolution] = {}
        self._version = plane.network.route_version

    def resolve(self, client_node: str) -> Resolution:
        """The current resolution for ``client_node`` (cached)."""
        version = self.plane.network.route_version
        if version != self._version:
            self._cache.clear()
            self._version = version
            self.invalidations += 1
        cached = self._cache.get(client_node)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self.plane.snapshot_path(client_node, self.dst)
        site, reason = delivery_verdict(result, self.deployment)
        resolution = Resolution(
            site=site,
            node=result.delivered_to,
            reason=reason,
            loss_class=CLASS_BY_REASON[reason] if reason is not None else None,
        )
        self._cache[client_node] = resolution
        return resolution

    def __len__(self) -> int:
        return len(self._cache)
