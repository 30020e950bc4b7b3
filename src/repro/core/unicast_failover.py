"""DNS-bound failover for the pure-unicast baseline.

The paper deliberately does not measure unicast failover on the testbed
(§5: no real client population means no way to observe worldwide DNS
caching and TTL violations) and instead argues from measured DNS
behaviour: median TTLs around 10 minutes for top domains (Moura et al.),
20 s at Akamai, and connections arriving a median of 890 s *after* TTL
expiry (Allman).

The model, per client: the client last looked the CDN's name up at a
uniformly random age within one TTL before the failure, through a
resolver it shares with ``clients_per_resolver - 1`` others. The
group's first-listed client filled that resolver's cache, so the whole
group holds the dead site's record for that client's remaining TTL,
``ttl - age``; each client then keeps it for a further
:meth:`TtlViolationModel.sample_overstay` seconds. Its switch delay is
that remaining TTL plus its overstay: the CDN repoints DNS at the
failure, so the client's next lookup reaches a surviving site.

A resolver's cache is filled in client-list order, not time order: a
client whose lookup came before its group's first-listed client's is
still served that client's record, one "from the future". So each
group's remaining TTL at the failure is uniform on (0, ttl], the
steady-state assumption, whatever the order of lookups within it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dns.client import TtlViolationModel
from repro.fields import Field, violations

#: the rows of :class:`UnicastFailoverConfig`, refused at construction:
#: a population without clients has no median switch delay, resolvers
#: shared by no clients cannot split it, and a NaN or infinite TTL
#: leaves no remaining TTL to time a switch by (nor does one so large
#: that the failure time ``2 * ttl`` overflows).
_ROWS = (
    Field("n_clients", kind=int, lo=1),
    Field("ttl", lo=0, hi=2**31 - 1, why="RFC 2181 caps a TTL at 2^31 - 1 s"),
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
        for _, message in violations(_ROWS, self):
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
) -> UnicastFailoverResult:
    """How long until each client leaves the failed site, DNS-only.

    Every lookup happened within one TTL before the failure at
    ``2 * ttl``; each client's switch delay is its group's remaining TTL
    plus its own overstay (module docstring).
    """
    config = config or UnicastFailoverConfig()
    rng = random.Random(config.seed)
    ttl = config.ttl
    # One overstay RNG per client, all seeded before any age is drawn.
    client_rngs = [random.Random(rng.getrandbits(32)) for _ in range(config.n_clients)]
    failure = ttl * 2
    delays = []
    for i, client_rng in enumerate(client_rngs):
        looked_up = failure - rng.uniform(0, ttl)
        if i % config.clients_per_resolver == 0:
            # The group's first-listed client fills its resolver's cache.
            expires = held = looked_up + ttl
        else:
            # A cache hit hands out the rest of the cached TTL, stamped
            # now. ``held`` equals ``expires`` up to rounding, and the
            # published delays were computed with this rounding; the max
            # below keeps the resolver's own expiry as the floor.
            held = looked_up + (expires - looked_up)
        overstay = config.violation.sample_overstay(client_rng)
        delays.append(max(held + overstay, expires) - failure)
    return UnicastFailoverResult(switch_delays=delays)
