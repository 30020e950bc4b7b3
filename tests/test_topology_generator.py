"""Tests for the Internet-like topology generator."""

import itertools

import networkx as nx
import pytest

from repro.bgp.policy import Relationship
from repro.topology.generator import (
    ACCESS_LATENCY_S,
    CLIENT_POOL,
    Topology,
    TopologyParams,
    generate_topology,
)
from repro.topology.geo import REGIONS
from repro.topology.relationships import AsClass, AsInfo
from repro.topology.geo import Location
from repro.topology.static_routes import static_routes_for


@pytest.fixture(scope="module")
def topo():
    return generate_topology()


class TestStructure:
    def test_tier1_clique(self, topo):
        tier1 = [a.node_id for a in topo.by_class(AsClass.TIER1)]
        assert len(tier1) == topo.params.n_tier1
        for a, b in itertools.combinations(tier1, 2):
            assert topo.neighbors(a)[b] is Relationship.PEER

    def test_class_counts(self, topo):
        p = topo.params
        n_regions = len(REGIONS)
        assert len(topo.by_class(AsClass.TRANSIT)) == n_regions * (
            p.n_transit_per_region + p.n_regional_per_region
        )
        assert len(topo.by_class(AsClass.EYEBALL)) == n_regions * p.n_eyeball_per_region
        assert len(topo.by_class(AsClass.UNIVERSITY)) == n_regions * p.n_university_per_region
        assert len(topo.by_class(AsClass.RE_BACKBONE)) == p.n_re_backbone
        assert len(topo.by_class(AsClass.HYPERGIANT)) == p.n_hypergiant

    def test_every_transit_has_tier1_provider(self, topo):
        for info in topo.ases.values():
            if not info.node_id.startswith("tr-"):
                continue
            providers = [
                n for n, rel in topo.neighbors(info.node_id).items()
                if rel is Relationship.PROVIDER
            ]
            assert any(p.startswith("t1-") for p in providers)

    def test_every_client_as_has_a_provider(self, topo):
        for info in topo.ases.values():
            if info.as_class in (AsClass.EYEBALL, AsClass.UNIVERSITY, AsClass.STUB):
                rels = topo.neighbors(info.node_id).values()
                assert Relationship.PROVIDER in rels

    def test_no_provider_cycles(self, topo):
        """The customer->provider digraph must be acyclic, or Gao-Rexford
        convergence guarantees break."""
        digraph = nx.DiGraph()
        for link in topo.links:
            if link.relationship is Relationship.PROVIDER:
                digraph.add_edge(link.a, link.b)  # a buys from b
            elif link.relationship is Relationship.CUSTOMER:
                digraph.add_edge(link.b, link.a)
        assert nx.is_directed_acyclic_graph(digraph)

    def test_graph_connected(self, topo):
        assert nx.is_connected(topo.to_networkx())

    def test_client_prefixes_unique(self, topo):
        prefixes = [a.prefix for a in topo.ases.values() if a.prefix is not None]
        assert len(prefixes) == len(set(prefixes))

    def test_web_client_tagging(self, topo):
        for info in topo.web_client_ases():
            assert info.as_class in (AsClass.EYEBALL, AsClass.UNIVERSITY)
        stub_tags = [a.hosts_web_clients for a in topo.by_class(AsClass.STUB)]
        assert not any(stub_tags)

    def test_universities_behind_home_backbone(self, topo):
        """US universities hang off US backbones, EU off EU ones."""
        for info in topo.by_class(AsClass.UNIVERSITY):
            providers = [
                n for n, rel in topo.neighbors(info.node_id).items()
                if rel is Relationship.PROVIDER and n.startswith("re-")
            ]
            assert providers, f"{info.node_id} has no R&E provider"

    def test_hypergiants_peer_widely(self, topo):
        for info in topo.by_class(AsClass.HYPERGIANT):
            peers = [
                n for n, rel in topo.neighbors(info.node_id).items()
                if rel is Relationship.PEER
            ]
            assert len(peers) >= 5

    def test_determinism(self):
        t1 = generate_topology(TopologyParams(seed=9))
        t2 = generate_topology(TopologyParams(seed=9))
        assert list(t1.ases) == list(t2.ases)
        assert [(l.a, l.b, l.relationship) for l in t1.links] == [
            (l.a, l.b, l.relationship) for l in t2.links
        ]

    def test_different_seeds_differ(self):
        t1 = generate_topology(TopologyParams(seed=1))
        t2 = generate_topology(TopologyParams(seed=2))
        assert [(l.a, l.b) for l in t1.links] != [(l.a, l.b) for l in t2.links]

    def test_networkx_attributes(self, topo):
        graph = topo.to_networkx()
        node = next(iter(graph.nodes))
        assert "asn" in graph.nodes[node]
        edge = next(iter(graph.edges))
        assert "relationship" in graph.edges[edge]


class TestTopologyApi:
    def test_duplicate_as_rejected(self):
        topo = Topology(params=TopologyParams())
        info = AsInfo("x", 1, AsClass.STUB, Location("us-west", 0, 0))
        topo.add_as(info)
        with pytest.raises(ValueError):
            topo.add_as(info)

    def test_duplicate_link_rejected(self, topo):
        link = topo.links[0]
        with pytest.raises(ValueError):
            topo.link(link.a, link.b, Relationship.PEER)

    def test_link_unknown_as_rejected(self):
        topo = Topology(params=TopologyParams())
        with pytest.raises(ValueError):
            topo.link("a", "b", Relationship.PEER)

    def test_link_latency_lookup(self, topo):
        link = topo.links[0]
        assert topo.link_latency(link.a, link.b) == link.latency_s
        assert topo.link_latency(link.b, link.a) == link.latency_s

    def test_link_latency_missing(self, topo):
        with pytest.raises(KeyError):
            topo.link_latency("t1-0", "no-such-node")

    def test_indexes_follow_growth(self):
        """``adjacency``, ``has_link`` and the static-route memo are kept
        by ``add_as`` / ``link`` themselves: no rebuild, no stale read."""
        topo = Topology(params=TopologyParams())
        loc = Location("us-west", 0, 0)
        for node in ("a", "b", "c"):
            topo.add_as(AsInfo(node, ord(node), AsClass.TRANSIT, loc))
        topo.link("b", "a", Relationship.PROVIDER)
        assert topo.has_link("a", "b") and topo.has_link("b", "a")
        assert not topo.has_link("a", "c")
        assert static_routes_for(topo, "a").route("c") is None
        topo.link("c", "a", Relationship.PROVIDER)
        assert static_routes_for(topo, "a").route("c").next_hop == "a"
        assert topo.adjacency == {
            "a": {"b": Relationship.CUSTOMER, "c": Relationship.CUSTOMER},
            "b": {"a": Relationship.PROVIDER},
            "c": {"a": Relationship.PROVIDER},
        }
        assert list(topo.adjacency) == list(topo.ases)
        topo.neighbors("a").clear()  # a copy: the index is untouched
        assert len(topo.adjacency["a"]) == 2

    def test_client_prefixes_are_the_pools_first_subnets(self, topo):
        drawn = [
            info.prefix for info in topo.ases.values()
            if info.prefix is not None and CLIENT_POOL.covers(info.prefix)
        ]
        assert drawn == CLIENT_POOL.subnets(24)[: len(drawn)]
        assert len(drawn) > 100


class TestDistributedLatency:
    def test_entering_distributed_network_is_access_hop(self, topo):
        tier1 = topo.by_class(AsClass.TIER1)[0]
        transit = next(
            n for n, rel in topo.neighbors(tier1.node_id).items()
            if n.startswith("tr-")
        )
        assert topo.hop_latency(transit, transit, tier1.node_id) == ACCESS_LATENCY_S

    def test_crossing_distributed_network_charges_entry_to_exit(self, topo):
        """eu -> tier1 -> eu stays regional; eu -> tier1 -> us pays the
        ocean crossing."""
        eu_a = "tr-eu-west-0"
        eu_b = "tr-eu-west-1"
        us = "tr-us-west-0"
        tier1 = topo.by_class(AsClass.TIER1)[0].node_id
        local = topo.hop_latency(eu_a, tier1, eu_b)
        remote = topo.hop_latency(eu_a, tier1, us)
        assert remote > 5 * local

    def test_path_latency_regional_path_under_50ms_rtt(self, topo):
        """A university reached through its regional R&E backbone must
        stay within the §5.1 proximity bound."""
        path = ["uni-eu-south-0", "re-1", "uni-eu-south-1"]
        rtt = 2 * topo.path_latency(path) * 1000
        assert rtt < 50.0

    def test_path_latency_transatlantic_over_50ms_rtt(self, topo):
        path = ["tr-eu-west-0", "t1-0", "tr-us-west-0"]
        rtt = 2 * topo.path_latency(path) * 1000
        assert rtt > 50.0

    def test_concrete_link_uses_geo_latency(self, topo):
        link = next(
            l for l in topo.links
            if not topo.ases[l.a].as_class.is_distributed
            and not topo.ases[l.b].as_class.is_distributed
        )
        assert topo.hop_latency(link.a, link.a, link.b) == link.latency_s
