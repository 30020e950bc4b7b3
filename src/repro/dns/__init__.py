"""The DNS side of the paper's techniques.

All of the paper's techniques hand out addresses via DNS (§2: "all
techniques use DNS to provide IP addresses to clients"); what differs is
the BGP announcement strategy behind those addresses. This package holds
the TTL-violating client behaviour (Allman 2020) that makes pure-unicast
failover so slow -- :mod:`repro.core.unicast_failover` turns it into
switch delays -- and §4's hybrid steering plan.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "TtlViolationModel": ".client",
})
