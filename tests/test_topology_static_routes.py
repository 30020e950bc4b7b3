"""Tests for the single-origin question -- which path traffic toward one
AS takes once its route has settled -- answered by the rank-ordered pass
with one origination (:func:`repro.topology.propagation.path_to`),
including its equivalence with the dynamic BGP simulator's steady state."""

import pytest

from repro.bgp.policy import LOCAL_PREF, Relationship
from repro.core.plan import Origination
from repro.topology.generator import Topology, TopologyParams, generate_topology
from repro.topology.geo import Location
from repro.topology.propagation import SymbolicGraph, path_to, propagate
from repro.topology.relationships import AsClass, AsInfo
from repro.topology.testbed import build_deployment
from repro.net.addr import IPv4Prefix

from tests.conftest import FAST_TIMING, SMALL_PARAMS
from tests.test_verify_reach import wide_deployment

PFX = IPv4Prefix.parse("184.164.244.0/24")
CUSTOMER, PEER, PROVIDER = (
    LOCAL_PREF[Relationship.CUSTOMER], LOCAL_PREF[Relationship.PEER], LOCAL_PREF[Relationship.PROVIDER]
)


def settled(topology: Topology, dest: str) -> dict:
    """node -> best route once ``dest`` alone announces."""
    graph = SymbolicGraph.from_topology(topology)
    return propagate(graph, [Origination(dest, PFX)], PFX).best


def hand_topology() -> Topology:
    r"""dest <- mid (provider) ; mid -- peer ; peer <- top? layout:

        top
         |        (top provides mid and far)
        mid ------ peer      (mid peers with peer)
         |
        dest                 (mid provides dest)
        far is customer of top only.
    """
    topo = Topology(params=TopologyParams())
    loc = Location("us-west", 0.0, 0.0)
    for name, klass in (
        ("dest", AsClass.EYEBALL),
        ("mid", AsClass.TRANSIT),
        ("peer", AsClass.TRANSIT),
        ("top", AsClass.TIER1),
        ("far", AsClass.EYEBALL),
    ):
        topo.add_as(AsInfo(name, hash(name) % 1000 + abs(hash(name)) % 7, klass, loc))
    # avoid accidental duplicate asns for determinism of tests
    for i, name in enumerate(topo.ases):
        topo.ases[name].asn = 100 + i
    topo.link("dest", "mid", Relationship.PROVIDER)
    topo.link("mid", "top", Relationship.PROVIDER)
    topo.link("mid", "peer", Relationship.PEER)
    topo.link("far", "top", Relationship.PROVIDER)
    return topo


class TestStaticSolver:
    def test_customer_route_upward(self):
        routes = settled(hand_topology(), "dest")
        mid = routes["mid"]
        assert mid.local_pref == CUSTOMER
        assert mid.learned_from == "dest"
        top = routes["top"]
        assert top.local_pref == CUSTOMER
        assert len(top.as_path) == 2

    def test_peer_route(self):
        peer = settled(hand_topology(), "dest")["peer"]
        assert peer.local_pref == PEER
        assert peer.learned_from == "mid"

    def test_provider_route_downward(self):
        far = settled(hand_topology(), "dest")["far"]
        assert far.local_pref == PROVIDER
        assert far.learned_from == "top"
        assert len(far.as_path) == 3

    def test_dest_has_no_route_entry(self):
        topo = hand_topology()
        assert path_to(topo, "dest", "dest") == ["dest"]
        assert "dest" not in topo.static_routes_cache()["dest"]

    def test_path_reconstruction(self):
        topo = hand_topology()
        assert path_to(topo, "far", "dest") == ["far", "top", "mid", "dest"]
        assert path_to(topo, "dest", "dest") == ["dest"]

    def test_unknown_destination_rejected(self):
        with pytest.raises(KeyError):
            path_to(hand_topology(), "far", "nope")

    def test_valley_free_invariant(self):
        """After a peer or provider step, every subsequent step must be
        downward (provider -> customer)."""
        topo = generate_topology(SMALL_PARAMS)
        clients = topo.web_client_ases()[:8]
        for dest in clients:
            for src in topo.ases:
                path = path_to(topo, src, dest.node_id)
                if path is None:
                    continue
                descended = False
                for a, b in zip(path, path[1:]):
                    rel = topo.neighbors(a)[b]
                    if descended:
                        assert rel is Relationship.CUSTOMER, (
                            f"valley in path {path} at {a}->{b}"
                        )
                    if rel is not Relationship.PROVIDER:
                        descended = True

    def test_rtt_positive_and_symmetric_scale(self):
        topo = generate_topology(SMALL_PARAMS)
        dest = topo.web_client_ases()[0]
        for src in list(topo.ases)[:20]:
            if src == dest.node_id:
                continue
            path = path_to(topo, src, dest.node_id)
            if path is not None:
                assert 0 < 2.0 * topo.path_latency(path) < 1.0  # under a second

    @pytest.mark.parametrize("wide", [False, True], ids=["testbed", "wide"])
    def test_no_site_reaches_another_site(self, wide):
        """Every site originates from the CDN's one ASN, so BGP loop
        prevention refuses a site any route toward another site: the
        one-origin answer has no site->site path (8 x 7 pairs on the
        testbed, 22 x 21 on the benchmark's wide world). No consumer
        asks for one: the proximity filter, the RTT tables and the
        probe requests all ask for a path from a site to a client AS."""
        deployment = wide_deployment(42) if wide else build_deployment(params=TopologyParams(seed=42))
        sites = [deployment.site_node(name) for name in deployment.site_names]
        pairs = [(a, b) for a in sites for b in sites if a != b]
        assert len(pairs) == (462 if wide else 56)
        assert all(path_to(deployment.topology, a, b) is None for a, b in pairs)


class TestEquivalenceWithDynamicBgp:
    """The one-origin answer must agree with the converged dynamic
    simulator on route class, path length and next hop."""

    @pytest.mark.parametrize("dest_index", [0, 3, 6])
    def test_same_preference_class_and_hops(self, dest_index):
        topo = generate_topology(SMALL_PARAMS)
        dest = topo.web_client_ases()[dest_index]
        routes = settled(topo, dest.node_id)

        network = topo.build_network(seed=5, timing=FAST_TIMING)
        network.announce(dest.node_id, PFX)
        network.converge()

        checked = 0
        for node in topo.ases:
            if node == dest.node_id:
                continue
            dynamic = network.router(node).best_route(PFX)
            expected = routes.get(node)
            if expected is None:
                assert dynamic is None
                continue
            assert dynamic is not None, f"{node} unreachable dynamically"
            assert dynamic.local_pref == expected.local_pref, node
            assert len(dynamic.as_path) == len(expected.as_path), node
            assert dynamic.learned_from == expected.learned_from, node
            assert path_to(topo, node, dest.node_id)[1] == dynamic.learned_from, node
            checked += 1
        assert checked > 20
