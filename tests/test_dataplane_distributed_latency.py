"""Tests for distributed-network latency semantics in the data plane."""

import pytest

from repro.dataplane.forwarding import ForwardingPlane
from repro.net.addr import IPv4Prefix
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, build_deployment

from tests.conftest import FAST_TIMING, install_fib

#: routed only by the FIB entries a test installs by hand
TEST_PREFIX = IPv4Prefix.parse("198.51.100.0/24")


@pytest.fixture(scope="module")
def converged_plane():
    deployment = build_deployment()
    network = deployment.topology.build_network(seed=17, timing=FAST_TIMING)
    network.announce(deployment.site_node("ath"), SPECIFIC_PREFIX)
    network.converge()
    return deployment, network, ForwardingPlane(network, deployment.topology)


def one_way(plane, network, path):
    """Simulated latency of a forward along ``path``, whose FIB entries
    are written by hand through the router (the last node delivers
    locally) so the path is the test's choice, not BGP's."""
    for node, next_hop in zip(path, path[1:] + path[-1:]):
        install_fib(network, node, TEST_PREFIX, next_hop)
    results = []
    start = network.now
    plane.forward(path[0], TEST_PREFIX.address(1), results.append)
    network.converge()
    assert results[0].path == path and results[0].delivered_to == path[-1]
    return results[0].completed_at - start


class TestLastConcrete:
    """The event-driven walk carries its most recent non-distributed
    node from hop to hop: leaving a distributed network is charged from
    there (``Topology.hop_latency``)."""

    @pytest.fixture()
    def access_path(self, converged_plane):
        """A client and the (concrete) upstream it really links to."""
        deployment, network, plane = converged_plane
        client = "eye-us-west-0"
        return client, next(iter(deployment.topology.neighbors(client)))

    def test_concrete_only_path(self, converged_plane, access_path):
        deployment, network, plane = converged_plane
        client, upstream = access_path
        assert one_way(plane, network, access_path) == pytest.approx(
            deployment.topology.link_latency(client, upstream)
        )

    def test_distributed_tail_skipped(self, converged_plane, access_path):
        deployment, network, plane = converged_plane
        topology = deployment.topology
        # tier-1 (t1-0) and R&E (re-0) are distributed: the hop out of
        # them is charged from the upstream before them.
        inside = access_path + ("t1-0", "re-0")
        path = inside + ("tr-eu-south-0",)
        leaving = one_way(plane, network, path) - one_way(plane, network, inside)
        assert leaving == pytest.approx(
            topology.hop_latency(access_path[1], "re-0", "tr-eu-south-0")
        )
        assert leaving != pytest.approx(topology.hop_latency("re-0", "re-0", "tr-eu-south-0"))

    def test_all_distributed_falls_back_to_origin(self, converged_plane):
        deployment, network, plane = converged_plane
        topology = deployment.topology
        inside = ("t1-0", "t1-1")
        path = inside + ("tr-eu-south-0",)
        leaving = one_way(plane, network, path) - one_way(plane, network, inside)
        assert leaving == pytest.approx(topology.hop_latency("t1-0", "t1-1", "tr-eu-south-0"))
        assert leaving != pytest.approx(topology.hop_latency("t1-1", "t1-1", "tr-eu-south-0"))


class TestForwardingLatencyConsistency:
    def test_event_forward_matches_path_latency(self, converged_plane):
        """The event-driven reply forwarder must accumulate exactly the
        topology's distributed-aware path latency (when routes are
        stable)."""
        deployment, network, plane = converged_plane
        topology = deployment.topology
        target = topology.web_client_ases()[0].node_id
        snapshot = plane.snapshot_path(target, PROBE_SOURCE)
        assert snapshot.delivered
        expected = topology.path_latency(list(snapshot.path))

        results = []
        start = network.now
        plane.forward(target, PROBE_SOURCE, results.append)
        network.converge()
        assert results[0].delivered
        measured = results[0].completed_at - start
        assert measured == pytest.approx(expected, rel=1e-6)

    def test_regional_reply_is_fast(self, converged_plane):
        """A eu-south client's reply to the eu-south site crosses only
        regional links: single-digit milliseconds one way."""
        deployment, network, plane = converged_plane
        topology = deployment.topology
        client = next(
            info.node_id
            for info in topology.web_client_ases()
            if info.location.region == "eu-south"
        )
        path = plane.snapshot_path(client, PROBE_SOURCE)
        assert path.delivered_to == deployment.site_node("ath")
        assert topology.path_latency(list(path.path)) < 0.025

    def test_transatlantic_reply_is_slow(self, converged_plane):
        deployment, network, plane = converged_plane
        topology = deployment.topology
        client = next(
            info.node_id
            for info in topology.web_client_ases()
            if info.location.region == "us-west"
        )
        path = plane.snapshot_path(client, PROBE_SOURCE)
        assert path.delivered
        assert topology.path_latency(list(path.path)) > 0.025
