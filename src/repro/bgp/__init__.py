"""Discrete-event BGP simulator.

This package is the routing substrate that replaces the real Internet used
by the paper's PEERING-testbed experiments. It models each autonomous
system (and each CDN site) as a BGP speaker with Gao-Rexford routing
policies, per-peer MRAI timers, and realistic message propagation delays,
driven by a discrete-event engine. Withdrawal path hunting and fast
announcement propagation -- the two BGP behaviours the paper's techniques
hinge on -- emerge from these mechanics rather than being scripted.
"""

from repro.bgp.engine import EventEngine
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.route import Route, Update
from repro.bgp.router import BgpRouter
from repro.bgp.collector import RouteCollector, CollectorEntry

__all__ = [
    "EventEngine",
    "BgpNetwork",
    "Relationship",
    "Route",
    "Update",
    "BgpRouter",
    "RouteCollector",
    "CollectorEntry",
]
