"""DNS-bound failover for the pure-unicast baseline.

The paper deliberately does not measure unicast failover on the testbed
(§5: no real client population means no way to observe worldwide DNS
caching and TTL violations) and instead argues from measured DNS
behaviour: median TTLs around 10 minutes for top domains (Moura et al.),
20 s at Akamai, and connections arriving a median of 890 s *after* TTL
expiry (Allman).

This module computes the same quantity the other techniques' failover
time captures -- when does each client stop sending traffic to the dead
site? -- from a simulated client population: per client, the switch time
is the moment its cached record (plus any TTL-violating overstay) ages
out and a fresh resolution returns a surviving site.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dns.authoritative import AuthoritativeServer, StaticMapping
from repro.dns.client import DnsClient, TtlViolationModel
from repro.dns.resolver import RecursiveResolver
from repro.fields import Field, violations
from repro.net.addr import IPv4Address

#: the rows of :class:`UnicastFailoverConfig`'s population, refused at
#: construction: a population without clients has no median switch
#: delay, and resolvers shared by no clients cannot split it.
_POPULATION = (
    Field("n_clients", kind=int, lo=1),
    Field("clients_per_resolver", kind=int, lo=1),
)


@dataclass(frozen=True, slots=True)
class UnicastFailoverConfig:
    """Client-population parameters for the DNS failover model."""

    n_clients: int = 500
    #: authoritative record TTL (Akamai-style 20 s by default; set to
    #: 600 s for the top-domain median the paper quotes)
    ttl: float = 20.0
    #: how many clients share each recursive resolver's cache
    clients_per_resolver: int = 10
    violation: TtlViolationModel = TtlViolationModel(violation_prob=0.3)
    seed: int = 0

    def __post_init__(self) -> None:
        for _, message in violations(_POPULATION, self):
            raise ValueError(message)


@dataclass(slots=True)
class UnicastFailoverResult:
    """Per-client switch delays after the failure."""

    switch_delays: list[float]

    def median(self) -> float:
        ordered = sorted(self.switch_delays)
        return ordered[len(ordered) // 2]

    def quantile(self, q: float) -> float:
        ordered = sorted(self.switch_delays)
        index = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[index]


def simulate_unicast_failover(
    config: UnicastFailoverConfig | None = None,
    failed_site: str = "sea1",
    surviving_site: str = "ams",
) -> UnicastFailoverResult:
    """How long until each client leaves the failed site, DNS-only.

    All clients resolve (and start using the failed site's address) at
    staggered times before the failure at t=0; the CDN repoints DNS at
    the moment of failure. Each client's switch delay is when its
    record -- cache freshness plus violation overstay -- stops being used.
    """
    config = config or UnicastFailoverConfig()
    rng = random.Random(config.seed)
    dead_addr = IPv4Address.parse("184.164.244.10")
    live_addr = IPv4Address.parse("184.164.245.10")
    auth = AuthoritativeServer(
        "cdn.example",
        StaticMapping(default_site=failed_site),
        {failed_site: dead_addr, surviving_site: live_addr},
        ttl=config.ttl,
    )

    clients: list[DnsClient] = []
    resolver: RecursiveResolver | None = None
    for i in range(config.n_clients):
        if i % config.clients_per_resolver == 0:
            resolver = RecursiveResolver(f"resolver-{i}", auth)
        client = DnsClient(
            f"client-{i}",
            resolver,
            config.violation,
            rng=random.Random(rng.getrandbits(32)),
        )
        clients.append(client)

    # Clients last resolved at a uniformly random point within one TTL
    # before the failure (steady-state population).
    failure_time = config.ttl * 2
    for client in clients:
        resolved_at = failure_time - rng.uniform(0, config.ttl)
        client.lookup("cdn.example", now=resolved_at)

    # Failure: the CDN repoints DNS instantly (its only unicast lever).
    auth.policy.steer_all(surviving_site)
    auth.remove_site(failed_site)

    delays = []
    for client in clients:
        if client.current_record.address == live_addr:
            # The shared resolver cache already held the post-failure
            # answer (possible when a cache miss raced the failure).
            delays.append(0.0)
            continue
        switch_at = client.switch_time("cdn.example", now=failure_time)
        # After the client re-resolves, the resolver cache may *still*
        # hold the stale record it cached pre-failure.
        record = client.resolver.cached_record("cdn.example")
        if record is not None and record.address == dead_addr:
            switch_at = max(switch_at, record.expires_at)
        delays.append(max(0.0, switch_at - failure_time))
    return UnicastFailoverResult(switch_delays=delays)
