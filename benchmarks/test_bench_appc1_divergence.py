"""Appendix C.1: why proactive-prepending loses control at sea1.

Paper: with a unicast prefix u at sea1 and an anycast prefix a5
(others prepending 5x), reverse traceroutes from sea1's targets show
36.2% going to sea1 for a5; of the divergent remainder, 54% divert via
an R&E next hop, and 82% of the relationship-classifiable divergences
follow customer>peer>provider preference. No unicast path is more than
5 AS hops longer than its anycast counterpart.
"""

from __future__ import annotations

import random

from repro.core.plan import apply_plan
from repro.core.techniques import ProactivePrepending
from repro.dataplane.forwarding import ForwardingPlane
from repro.dataplane.traceroute import ReverseTraceroute
from repro.measurement.catchment import anycast_catchment
from repro.measurement.divergence import analyze_divergence
from repro.topology.testbed import SECOND_PREFIX, SPECIFIC_PREFIX

from benchmarks.conftest import report

PAPER = {
    "to_intended": 0.362,
    "research_next_hop": 0.54,
    "policy_preferred": 0.82,
    "max_excess": 5,
    #: reverse traceroute could measure 17,908 of 50 K target pairs
    "rr_support": 0.36,
}


def _run(deployment):
    topology = deployment.topology
    network = topology.build_network(seed=21)
    network.announce(deployment.site_node("sea1"), SECOND_PREFIX)
    apply_plan(network, ProactivePrepending(5).originations(deployment, "sea1"))
    network.converge()

    plane = ForwardingPlane(network, topology)
    traceroute = ReverseTraceroute(
        plane, topology, support_prob=PAPER["rr_support"], rng=random.Random(3)
    )
    catchment = anycast_catchment(topology, deployment)
    u_addr = SECOND_PREFIX.address(10)
    a_addr = SPECIFIC_PREFIX.address(10)
    pairs = []
    for info in topology.web_client_ases():
        if not info.location.region.startswith("us-"):
            continue
        if catchment.get(info.node_id) == "sea1":
            continue  # §5.1 selection: targets anycast routes elsewhere
        pair = traceroute.measure_pair(info.node_id, u_addr, a_addr)
        if pair is not None:
            pairs.append(pair)
    relationships = topology.relationship_dataset(
        coverage=0.9, rng=random.Random(4)
    )
    analysis = analyze_divergence(topology, deployment, "sea1", pairs, relationships)
    return analysis, traceroute


def test_appc1_divergence(benchmark, deployment):
    analysis, traceroute = benchmark.pedantic(
        _run, args=(deployment,), rounds=1, iterations=1
    )
    to_intended = analysis.n_to_intended / max(analysis.n_pairs, 1)
    lines = [
        "| quantity | paper | measured |",
        "|---|---|---|",
        f"| pairs measured | 17,908/50k ({PAPER['rr_support']:.0%}) "
        f"| {traceroute.succeeded}/{traceroute.attempted} |",
        f"| to intended site (a5) | {PAPER['to_intended']:.1%} | {to_intended:.1%} |",
        f"| divergent via R&E next hop | {PAPER['research_next_hop']:.0%} "
        f"| {analysis.research_next_hop_frac:.0%} |",
        f"| explained by policy preference | {PAPER['policy_preferred']:.0%} "
        f"| {analysis.policy_preferred_frac:.0%} |",
        f"| max unicast path excess | <= {PAPER['max_excess']} "
        f"| {analysis.max_unicast_path_excess} |",
    ]
    report("Appendix C.1 — diverging-AS analysis (sea1)", lines)

    assert analysis.n_pairs > 10
    assert to_intended < 0.5
    assert analysis.research_next_hop_frac > 0.3
    assert analysis.policy_preferred_frac > 0.5
    assert analysis.max_unicast_path_excess <= PAPER["max_excess"]
