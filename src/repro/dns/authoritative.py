"""The CDN's authoritative DNS server and its mapping policy.

DNS-based redirection (§2): the authoritative resolver returns an address
inside the prefix of whichever site the CDN wants the client to use,
based on whatever information only the CDN has (performance, load,
health). On failure, the CDN rewrites the mapping -- and then waits for
the world's caches to notice, which is the availability problem the
paper's techniques remove.
"""

from __future__ import annotations

from repro.dns.records import ARecord
from repro.net.addr import IPv4Address


class StaticMapping:
    """A fixed client->site map with a default site.

    The experiments use this directly: §5 steers each selected target to
    the "specific site" under test. With an ``"anycast"`` pseudo-site as
    the default (given the anycast address like any real site) it is
    §4's hybrid: anycast for most clients, unicast steering for the
    ones :func:`repro.dns.hybrid.build_steering_plan` picks.
    """

    def __init__(self, default_site: str, overrides: dict[str, str] | None = None) -> None:
        self.default_site = default_site
        self.overrides = dict(overrides or {})

    def site_for(self, qname: str, client_id: str) -> str:
        return self.overrides.get(client_id, self.default_site)

    def steer(self, client_id: str, site: str) -> None:
        """Pin one client to one site."""
        self.overrides[client_id] = site

    def steer_all(self, site: str) -> None:
        """Repoint the default (e.g. away from a failed site)."""
        self.default_site = site
        self.overrides.clear()


class AuthoritativeServer:
    """Authoritative server for the CDN's zone.

    ``site_addresses`` maps site names to the service address inside that
    site's prefix; updating it (or the policy) is the CDN's DNS-side
    failover action.
    """

    def __init__(
        self,
        zone: str,
        policy: StaticMapping,
        site_addresses: dict[str, IPv4Address],
        ttl: float = 20.0,
    ) -> None:
        if ttl < 0:
            raise ValueError(f"TTL must be non-negative, got {ttl}")
        self.zone = zone
        self.policy = policy
        self.site_addresses = dict(site_addresses)
        self.ttl = ttl
        self.queries_served = 0

    def query(self, qname: str, client_id: str, now: float) -> ARecord:
        """Answer an A query, applying the mapping policy."""
        if not (qname == self.zone or qname.endswith("." + self.zone)):
            raise KeyError(f"{qname!r} is not in zone {self.zone!r}")
        site = self.policy.site_for(qname, client_id)
        if site not in self.site_addresses:
            raise KeyError(f"mapping policy chose unknown site {site!r}")
        self.queries_served += 1
        return ARecord(qname, self.site_addresses[site], self.ttl, issued_at=now)

    def remove_site(self, site: str) -> None:
        """Drop a failed site from the answer pool."""
        self.site_addresses.pop(site, None)
