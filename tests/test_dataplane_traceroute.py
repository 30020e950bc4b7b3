"""Tests for traceroute emulation and AS-path translation."""

import random

import pytest

from repro.dataplane.forwarding import ForwardingPlane
from repro.dataplane.traceroute import (
    ReverseTraceroute,
    as_level_path,
    forward_path,
    reverse_path,
)
from repro.net.addr import IPv4Prefix
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, build_deployment

from tests.conftest import FAST_TIMING


@pytest.fixture(scope="module")
def converged():
    dep = build_deployment()
    net = dep.topology.build_network(seed=3, timing=FAST_TIMING)
    net.announce(dep.site_node("sea1"), SPECIFIC_PREFIX)
    net.converge()
    return dep, net, ForwardingPlane(net, dep.topology)


class TestPaths:
    def test_reverse_path_ends_at_announcing_site(self, converged):
        dep, net, plane = converged
        target = dep.topology.web_client_ases()[0].node_id
        path = reverse_path(plane, target, PROBE_SOURCE)
        assert path is not None
        assert path[0] == target
        assert path[-1] == dep.site_node("sea1")

    def test_forward_path_none_when_unreachable(self, converged):
        dep, net, plane = converged
        target = dep.topology.web_client_ases()[0].node_id
        unknown = IPv4Prefix.parse("203.0.113.0/24").address(1)
        assert forward_path(plane, target, unknown) is None

    def test_as_level_path_collapses_shared_asn(self, converged):
        dep, net, plane = converged
        # Two CDN site nodes share an ASN: consecutive duplicates collapse.
        path = ["site:sea1", "site:sea2"]
        assert as_level_path(dep.topology, path) == [47065]

    def test_as_level_path_regular(self, converged):
        dep, net, plane = converged
        target = dep.topology.web_client_ases()[0].node_id
        node_path = reverse_path(plane, target, PROBE_SOURCE)
        as_path = as_level_path(dep.topology, node_path)
        assert len(as_path) == len(node_path)  # distinct ASNs along the way
        assert as_path[-1] == 47065


class TestReverseTraceroute:
    def test_full_support_measures_everything(self, converged):
        dep, net, plane = converged
        rt = ReverseTraceroute(plane, dep.topology, support_prob=1.0)
        target = dep.topology.web_client_ases()[0].node_id
        assert rt.measure_pair(target, PROBE_SOURCE, PROBE_SOURCE) is not None
        assert rt.succeeded == 1

    def test_no_support_measures_nothing(self, converged):
        dep, net, plane = converged
        rt = ReverseTraceroute(plane, dep.topology, support_prob=0.0, rng=random.Random(1))
        target = dep.topology.web_client_ases()[0].node_id
        assert rt.measure_pair(target, PROBE_SOURCE, PROBE_SOURCE) is None
        assert rt.attempted == 1
        assert rt.succeeded == 0

    def test_partial_support_rate(self, converged):
        """Mirrors the paper's record-route gap (17,908 of 50 K usable)."""
        dep, net, plane = converged
        rt = ReverseTraceroute(plane, dep.topology, support_prob=0.36, rng=random.Random(2))
        targets = [a.node_id for a in dep.topology.web_client_ases()]
        pairs = [
            rt.measure_pair(t, PROBE_SOURCE, PROBE_SOURCE) for t in targets
        ]
        measured = [p for p in pairs if p is not None]
        assert 0.2 < len(measured) / len(targets) < 0.55

    def test_pair_contains_both_paths(self, converged):
        dep, net, plane = converged
        rt = ReverseTraceroute(plane, dep.topology)
        target = dep.topology.web_client_ases()[0].node_id
        pair = rt.measure_pair(target, PROBE_SOURCE, PROBE_SOURCE)
        assert pair.to_unicast == pair.to_anycast
        assert pair.target_node == target

    def test_support_prob_validated(self, converged):
        dep, net, plane = converged
        with pytest.raises(ValueError):
            ReverseTraceroute(plane, dep.topology, support_prob=1.5)
