"""Discrete-event BGP simulator.

This package is the routing substrate that replaces the real Internet used
by the paper's PEERING-testbed experiments. It models each autonomous
system (and each CDN site) as a BGP speaker with Gao-Rexford routing
policies, per-peer MRAI timers, and realistic message propagation delays,
driven by a discrete-event engine. Withdrawal path hunting and fast
announcement propagation -- the two BGP behaviours the paper's techniques
hinge on -- emerge from these mechanics rather than being scripted.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "EventEngine": ".engine",
    "BgpNetwork": ".network",
    "Relationship": ".policy",
    "Route": ".route",
    "Update": ".route",
    "BgpRouter": ".router",
    "RouteCollector": ".collector",
    "CollectorEntry": ".collector",
})
