"""Simulated data plane: forwarding, probing, traceroute.

The paper measures failover on the data plane by pinging ~50 K targets
every ~1.5 s from PEERING (via Verfploeter, sourcing probes from an
address inside the prefix under test) and running tcpdump at every site
to see where replies land (§5.2). This package reproduces that apparatus:
packets are forwarded hop-by-hop over the routers' live FIBs *as events
on the simulation clock*, so a reply in flight can be rerouted -- or
blackholed -- by BGP convergence happening underneath it, exactly the
phenomenon §3 describes for proactive-superprefix. Where each reply
landed is written into the record of the probe that drew it
(:class:`~repro.dataplane.ping.Probe`).
"""

from repro.dataplane.forwarding import ForwardingPlane, ForwardResult, DropReason
from repro.dataplane.ping import Probe, Prober, ProbeLog
from repro.dataplane.traceroute import as_level_path, forward_path, reverse_path, ReverseTraceroute

__all__ = [
    "ForwardingPlane",
    "ForwardResult",
    "DropReason",
    "Probe",
    "Prober",
    "ProbeLog",
    "forward_path",
    "reverse_path",
    "as_level_path",
    "ReverseTraceroute",
]
