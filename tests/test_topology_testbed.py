"""Tests for the CDN deployment (PEERING-testbed stand-in)."""

import pytest

from repro.bgp.policy import Relationship
from repro.net.addr import IPv4Address
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.relationships import AsClass
from repro.topology.testbed import (
    CDN_ASN,
    PROBE_SOURCE,
    SECOND_PREFIX,
    SPECIFIC_PREFIX,
    SUPERPREFIX,
    SiteSpec,
    build_deployment,
    default_site_specs,
)


class TestPrefixAllocations:
    def test_super_covers_both_specifics(self):
        assert SUPERPREFIX.covers(SPECIFIC_PREFIX)
        assert SUPERPREFIX.covers(SECOND_PREFIX)
        assert SPECIFIC_PREFIX != SECOND_PREFIX

    def test_probe_source_inside_specific(self):
        """§5.2 sources probes from 184.164.244.10 so replies follow the
        prefix under test."""
        assert SPECIFIC_PREFIX.contains(PROBE_SOURCE)
        assert PROBE_SOURCE == IPv4Address.parse("184.164.244.10")


class TestDeployment:
    def test_eight_paper_sites(self, deployment):
        assert set(deployment.site_names) == {
            "ams", "ath", "bos", "atl", "sea1", "sea2", "slc", "msn",
        }

    def test_sites_share_cdn_asn(self, deployment):
        for site in deployment.site_names:
            assert deployment.topology.ases[deployment.site_node(site)].asn == CDN_ASN

    def test_sites_classified_as_cdn(self, deployment):
        for site in deployment.site_names:
            assert deployment.topology.ases[deployment.site_node(site)].as_class is AsClass.CDN

    def test_site_node_roundtrip(self, deployment):
        for site in deployment.site_names:
            node = deployment.site_node(site)
            assert deployment.site_of_node(node) == site

    def test_site_of_node_for_regular_as(self, deployment):
        assert deployment.site_of_node("tr-us-west-0") is None
        assert deployment.site_of_node("site:nope") is None

    def test_unknown_site_rejected(self, deployment):
        with pytest.raises(KeyError):
            deployment.site_node("lhr")

    def test_sites_attached_per_spec(self, deployment):
        topo = deployment.topology
        for site, spec in deployment.sites.items():
            neighbors = topo.neighbors(deployment.site_node(site))
            for provider in spec.providers:
                assert neighbors[provider] is Relationship.PROVIDER
            for peer in spec.peers:
                assert neighbors[peer] is Relationship.PEER

    def test_connectivity_mix_mirrors_paper(self, deployment):
        """sea1 is commercially hosted; sea2/slc/msn/bos/atl sit behind
        universities; ath behind an R&E backbone; ams at an IXP."""
        sites = deployment.sites
        assert sites["sea1"].providers[0].startswith("tr-")
        for name in ("sea2", "slc", "msn", "bos", "atl"):
            assert sites[name].providers[0].startswith("uni-")
        assert sites["ath"].providers[0].startswith("re-")
        assert len(sites["ams"].peers) >= 5

    def test_missing_as_raises(self):
        topo = generate_topology(TopologyParams(seed=1))
        bad = [SiteSpec(name="x", region="us-west", providers=("no-such-as",))]
        with pytest.raises(ValueError, match="no-such-as"):
            build_deployment(topology=topo, specs=bad)

    def test_custom_specs(self):
        topo = generate_topology(TopologyParams(seed=1))
        specs = [
            SiteSpec(name="a", region="us-west", providers=("tr-us-west-0",)),
            SiteSpec(name="b", region="eu-west", providers=("tr-eu-west-0",)),
        ]
        dep = build_deployment(topology=topo, specs=specs)
        assert dep.site_names == ["a", "b"]

    def test_default_specs_reference_default_topology(self):
        """Every node named in the default specs exists in the default
        topology (guards against generator renames)."""
        topo = generate_topology()
        for spec in default_site_specs():
            for node in (*spec.providers, *spec.peers):
                assert node in topo.ases, node
