#!/usr/bin/env python3
"""Traffic engineering with proactive-prepending (Table 1 in miniature).

Shows the control side of the paper's trade-off:

1. measure the pure-anycast catchment of every site;
2. pick an intended site and measure how many nearby clients
   proactive-prepending can steer there with 3 and 5 prepends;
3. steer one client explicitly via the DNS mapping policy and verify the
   data plane delivers its traffic to the intended site.

Run:  python examples/traffic_engineering.py
"""

from collections import Counter

from repro import build_deployment
from repro.core.plan import apply_plan
from repro.core.techniques import ProactivePrepending
from repro.dataplane.forwarding import ForwardingPlane
from repro.dns.authoritative import AuthoritativeServer, StaticMapping
from repro.measurement.catchment import anycast_catchment
from repro.measurement.control import measure_control
from repro.topology.testbed import SPECIFIC_PREFIX


def main() -> None:
    deployment = build_deployment()
    topology = deployment.topology

    print("== anycast catchments (web-client ASes per site) ==")
    catchment = anycast_catchment(topology, deployment)
    for site, count in Counter(catchment.values()).most_common():
        print(f"  {site:6s} {count}")

    intended = "msn"
    print(f"\n== prepending control for intended site {intended!r} ==")
    control = measure_control(topology, deployment, intended, catchment)
    print(f"  nearby targets: {control.nearby}")
    print(f"  not routed there by anycast: {control.not_routed_by_anycast:.0%}")
    for prepend, frac in control.controllable.items():
        print(f"  steerable with prepend-{prepend}: {frac:.0%}")

    print(f"\n== steering one client to {intended!r} ==")
    network = topology.build_network(seed=5)
    apply_plan(network, ProactivePrepending(3).originations(deployment, intended))
    network.converge()

    # DNS side: the mapping policy hands this client an address in the
    # intended site's prefix.
    addresses = {site: SPECIFIC_PREFIX.address(10) for site in deployment.site_names}
    dns = AuthoritativeServer(
        "cdn.example", StaticMapping(default_site=intended), addresses, ttl=20.0
    )
    client_as = next(
        node for node, site in catchment.items() if site == intended
    )
    answer = dns.query("cdn.example", client_as, now=0.0)
    print(f"  client {client_as} resolves cdn.example -> {answer.address} (ttl {answer.ttl:.0f}s)")

    # Data-plane side: the client's packets toward that address land at
    # the intended site.
    plane = ForwardingPlane(network, topology)
    result = plane.snapshot_path(client_as, answer.address)
    landing = deployment.site_of_node(result.delivered_to)
    print(f"  data plane delivers to: {landing} via {' -> '.join(result.path)}")
    assert landing == intended


if __name__ == "__main__":
    main()
