"""Anycast catchment measurement.

The catchment of a site is the set of clients whose BGP-selected route
for the anycast prefix terminates there. The paper measures catchments
with Verfploeter-style probing; in simulation the settled catchment is
the symbolic fixed point of the announcement plan
(:func:`repro.topology.propagation.settled_catchment`), which equals
what the event simulation converges to and what replies then land on
(``tests/test_verify_propagation.py`` holds all three equal).
"""

from __future__ import annotations

from repro.bgp.network import BgpNetwork
from repro.core.plan import Origination
from repro.net.addr import IPv4Prefix
from repro.topology.generator import Topology
from repro.topology.propagation import settled_catchment
from repro.topology.testbed import CdnDeployment, SPECIFIC_PREFIX


def catchment_from_network(
    network: BgpNetwork,
    deployment: CdnDeployment,
    prefix: IPv4Prefix,
    nodes: list[str],
) -> dict[str, str | None]:
    """Read the current catchment off a (converged) network's Loc-RIBs.

    The simulator-side reference the settled solvers are tested against;
    mid-run code asks :meth:`repro.core.rig.RunRig.live_site` instead.
    Returns node -> site name, or None where the node has no route to
    ``prefix`` (or is routed to a non-site origin, which cannot happen
    for the CDN's own prefixes).
    """
    result: dict[str, str | None] = {}
    for node in nodes:
        route = network.router(node).best_route(prefix)
        if route is None:
            result[node] = None
        else:
            result[node] = deployment.site_of_node(route.origin_node)
    return result


def anycast_catchment(
    topology: Topology,
    deployment: CdnDeployment,
    prefix: IPv4Prefix = SPECIFIC_PREFIX,
    seed: int = 0,
    nodes: list[str] | None = None,
) -> dict[str, str | None]:
    """The settled pure-anycast catchment: ``prefix`` announced from
    every site. ``nodes`` defaults to all web-client ASes (the §5.1
    population).

    ``seed`` is unused -- a settled state has no randomness in it -- and
    stays only because the frozen benchmark harness passes it;
    ``topology`` is ``deployment.topology``.
    """
    plan = [Origination(deployment.site_node(site), prefix) for site in deployment.site_names]
    return settled_catchment(deployment, plan, nodes)
