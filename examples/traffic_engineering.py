#!/usr/bin/env python3
"""Traffic engineering with proactive-prepending (Table 1 in miniature).

Shows the control side of the paper's trade-off:

1. measure the pure-anycast catchment of every site;
2. pick an intended site and measure how many nearby clients
   proactive-prepending can steer there with 3 and 5 prepends;
3. send one client's traffic to the site's address and verify the data
   plane delivers it to the intended site.

Run:  python examples/traffic_engineering.py
"""

from collections import Counter

from repro import build_deployment
from repro.core.plan import apply_plan
from repro.core.techniques import ProactivePrepending
from repro.dataplane.forwarding import ForwardingPlane
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

    client_as = next(
        node for node, site in catchment.items() if site == intended
    )
    # The client's packets toward an address in the site's prefix land
    # at the intended site.
    plane = ForwardingPlane(network, topology)
    result = plane.snapshot_path(client_as, SPECIFIC_PREFIX.address(10))
    landing = deployment.site_of_node(result.delivered_to)
    print(f"  data plane delivers to: {landing} via {' -> '.join(result.path)}")
    assert landing == intended


if __name__ == "__main__":
    main()
