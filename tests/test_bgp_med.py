"""Tests for MED support and the proactive-med technique."""

from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.route import Route, better
from repro.core.plan import apply_plan
from repro.core.techniques import ProactiveMed, technique_by_name
from repro.net.addr import IPv4Prefix
from repro.topology.testbed import SPECIFIC_PREFIX

from tests.conftest import FAST_TIMING

PFX = IPv4Prefix.parse("184.164.244.0/24")


def route(med=0, first_asn=47065, learned_from="a", length=2):
    path = (first_asn,) + (9,) * (length - 1)
    return Route(PFX, path, learned_from, 200, "o", med=med)


class TestMedComparison:
    def test_lower_med_wins_same_neighbor_as(self):
        assert better(route(med=0, learned_from="b"), route(med=100, learned_from="a"))

    def test_med_ignored_across_neighbor_ases(self):
        low_med = route(med=0, first_asn=1, learned_from="b")
        high_med = route(med=100, first_asn=2, learned_from="a")
        # Falls through to the learned_from tie-break: "a" < "b".
        assert better(high_med, low_med)

    def test_med_after_path_length(self):
        short_high_med = route(med=100, length=2, learned_from="b")
        long_low_med = route(med=0, length=3, learned_from="a")
        assert better(short_high_med, long_low_med)

    def test_local_pref_dominates_med(self):
        customer = Route(PFX, (47065,), "a", 300, "o", med=100)
        provider = Route(PFX, (47065,), "b", 100, "o", med=0)
        assert better(customer, provider)


class TestMedPropagation:
    def build(self) -> BgpNetwork:
        """Two sites (same ASN) both connected to one shared neighbor,
        which also has a customer."""
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        net.add_router("site-a", 47065)
        net.add_router("site-b", 47065)
        net.add_router("shared", 100)
        net.add_router("client", 200)
        net.connect("site-a", "shared", Relationship.PROVIDER)
        net.connect("site-b", "shared", Relationship.PROVIDER)
        net.connect("client", "shared", Relationship.PROVIDER)
        return net

    def test_shared_neighbor_honours_med(self):
        net = self.build()
        net.announce("site-a", PFX, med=100)
        net.announce("site-b", PFX, med=0)
        net.converge()
        assert net.router("shared").best_route(PFX).origin_node == "site-b"

    def test_med_steers_despite_tiebreak(self):
        """Without MED, 'shared' picks site-a by learned_from order;
        MED overrides that."""
        net = self.build()
        net.announce("site-a", PFX)
        net.announce("site-b", PFX)
        net.converge()
        assert net.router("shared").best_route(PFX).origin_node == "site-a"

    def test_med_not_reexported(self):
        """MED is non-transitive: the client behind 'shared' sees MED 0
        regardless of what the sites sent."""
        net = self.build()
        net.announce("site-a", PFX, med=100)
        net.announce("site-b", PFX, med=70)
        net.converge()
        client_route = net.router("client").best_route(PFX)
        assert client_route.med == 0

    def test_failover_to_higher_med(self):
        net = self.build()
        net.announce("site-a", PFX, med=0)
        net.announce("site-b", PFX, med=100)
        net.converge()
        assert net.router("shared").best_route(PFX).origin_node == "site-a"
        net.withdraw("site-a", PFX)
        net.converge()
        assert net.router("shared").best_route(PFX).origin_node == "site-b"


class TestProactiveMedTechnique:
    def test_registered(self):
        assert technique_by_name("proactive-med").name == "proactive-med-100"

    def test_announcements(self, deployment):
        net = deployment.topology.build_network(seed=3, timing=FAST_TIMING)
        apply_plan(net, ProactiveMed().originations(deployment, "sea1"))
        net.converge()
        specific = net.router(deployment.site_node("sea1"))
        assert specific.origins.get(SPECIFIC_PREFIX).med == 0
        other = net.router(deployment.site_node("ams"))
        assert other.origins.get(SPECIFIC_PREFIX).med == 100

    def test_no_path_length_penalty(self, deployment):
        """Unlike prepending, MED backups keep natural path lengths --
        a client's route to a backup site is as short as pure anycast's."""
        net_med = deployment.topology.build_network(seed=3, timing=FAST_TIMING)
        apply_plan(net_med, ProactiveMed().originations(deployment, "sea1"))
        net_med.converge()
        net_any = deployment.topology.build_network(seed=3, timing=FAST_TIMING)
        for site in deployment.site_names:
            net_any.announce(deployment.site_node(site), SPECIFIC_PREFIX)
        net_any.converge()
        client = deployment.topology.web_client_ases()[0].node_id
        med_route = net_med.router(client).best_route(SPECIFIC_PREFIX)
        any_route = net_any.router(client).best_route(SPECIFIC_PREFIX)
        assert len(med_route.as_path) == len(any_route.as_path)
