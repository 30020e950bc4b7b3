"""DNS-based redirection substrate.

All of the paper's techniques hand out addresses via DNS (§2: "all
techniques use DNS to provide IP addresses to clients"); what differs is
the BGP announcement strategy behind those addresses. This package models
the DNS side: the CDN's authoritative server and its mapping policy,
caching recursive resolvers, and clients -- including the TTL-violating
behaviour (Allman 2020) that makes pure-unicast failover so slow.
"""

from repro.dns.records import ARecord
from repro.dns.authoritative import AuthoritativeServer, StaticMapping
from repro.dns.resolver import RecursiveResolver
from repro.dns.client import DnsClient, TtlViolationModel

__all__ = [
    "ARecord",
    "AuthoritativeServer",
    "StaticMapping",
    "RecursiveResolver",
    "DnsClient",
    "TtlViolationModel",
]
