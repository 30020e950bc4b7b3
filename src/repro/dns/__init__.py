"""DNS-based redirection substrate.

All of the paper's techniques hand out addresses via DNS (§2: "all
techniques use DNS to provide IP addresses to clients"); what differs is
the BGP announcement strategy behind those addresses. This package models
the DNS side: the CDN's authoritative server and its mapping policy,
caching recursive resolvers, and clients -- including the TTL-violating
behaviour (Allman 2020) that makes pure-unicast failover so slow.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ARecord": ".records",
    "AuthoritativeServer": ".authoritative",
    "StaticMapping": ".authoritative",
    "RecursiveResolver": ".resolver",
    "DnsClient": ".client",
    "TtlViolationModel": ".client",
})
