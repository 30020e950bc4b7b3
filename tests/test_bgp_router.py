"""Unit tests for the BGP speaker: import, selection, export, FIB."""

import pytest

from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.net.addr import IPv4Address, IPv4Prefix

from tests.conftest import FAST_TIMING, announcement, withdrawal

PFX = IPv4Prefix.parse("184.164.244.0/24")
SUPER = IPv4Prefix.parse("184.164.244.0/23")
ADDR = IPv4Address.parse("184.164.244.10")


def star_network() -> BgpNetwork:
    """hub with customer `cust`, peer `peer`, provider `prov`."""
    net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
    net.add_router("hub", 10)
    net.add_router("cust", 20)
    net.add_router("peer", 30)
    net.add_router("prov", 40)
    net.connect("hub", "cust", Relationship.CUSTOMER)
    net.connect("hub", "peer", Relationship.PEER)
    net.connect("hub", "prov", Relationship.PROVIDER)
    return net


class TestOrigination:
    def test_originate_installs_local_fib(self):
        net = star_network()
        net.announce("hub", PFX)
        net.converge()
        assert net.next_hop("hub", ADDR) == "hub"

    def test_originate_reaches_all_neighbor_classes(self):
        net = star_network()
        net.announce("hub", PFX)
        net.converge()
        for node in ("cust", "peer", "prov"):
            route = net.router(node).best_route(PFX)
            assert route is not None
            assert route.as_path == (10,)

    def test_withdraw_origin(self):
        net = star_network()
        net.announce("hub", PFX)
        net.converge()
        assert net.withdraw("hub", PFX)
        net.converge()
        for node in net.nodes():
            assert net.router(node).best_route(PFX) is None
        assert net.next_hop("hub", ADDR) is None

    def test_withdraw_unannounced_returns_false(self):
        net = star_network()
        assert not net.withdraw("hub", PFX)

    def test_reannounce_after_withdraw(self):
        net = star_network()
        net.announce("hub", PFX)
        net.converge()
        net.withdraw("hub", PFX)
        net.converge()
        net.announce("hub", PFX)
        net.converge()
        assert net.router("cust").best_route(PFX) is not None

    def test_originate_with_prepending(self):
        net = star_network()
        net.announce("hub", PFX, prepend=3)
        net.converge()
        assert net.router("cust").best_route(PFX).as_path == (10, 10, 10, 10)

    def test_originate_scoped_to_neighbors(self):
        """The paper's refinement: announce (prepended) routes only to
        selected neighbors."""
        net = star_network()
        net.announce("hub", PFX, neighbors=frozenset({"cust"}))
        net.converge()
        assert net.router("cust").best_route(PFX) is not None
        assert net.router("peer").best_route(PFX) is None
        assert net.router("prov").best_route(PFX) is None

    def test_originated_prefixes_listing(self):
        net = star_network()
        net.announce("hub", PFX)
        net.announce("hub", SUPER)
        assert set(net.router("hub").originated_prefixes()) == {PFX, SUPER}


class TestValleyFreeExport:
    def build_chain(self) -> BgpNetwork:
        """origin <- transit (origin's provider); transit has peer and
        its own provider."""
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        for name, asn in (("origin", 1), ("transit", 2), ("peer", 3), ("top", 4)):
            net.add_router(name, asn)
        net.connect("origin", "transit", Relationship.PROVIDER)
        net.connect("transit", "peer", Relationship.PEER)
        net.connect("transit", "top", Relationship.PROVIDER)
        return net

    def test_customer_route_exported_to_peer_and_provider(self):
        net = self.build_chain()
        net.announce("origin", PFX)
        net.converge()
        assert net.router("peer").best_route(PFX) is not None
        assert net.router("top").best_route(PFX) is not None

    def test_peer_route_not_exported_to_provider(self):
        net = self.build_chain()
        net.announce("peer", PFX)
        net.converge()
        # transit has the peer route, but must not give it to top.
        assert net.router("transit").best_route(PFX) is not None
        assert net.router("top").best_route(PFX) is None

    def test_provider_route_not_exported_to_peer(self):
        net = self.build_chain()
        net.announce("top", PFX)
        net.converge()
        assert net.router("transit").best_route(PFX) is not None
        assert net.router("peer").best_route(PFX) is None

    def test_provider_route_exported_to_customer(self):
        net = self.build_chain()
        net.announce("top", PFX)
        net.converge()
        assert net.router("origin").best_route(PFX) is not None


class TestLoopPrevention:
    def test_as_path_loop_rejected(self):
        net = star_network()
        router = net.router("hub")
        looped = announcement("cust", PFX, (20, 10, 5))
        router.receive(looped)
        assert router.best_route(PFX) is None

    def test_looped_announcement_acts_as_implicit_withdraw(self):
        net = star_network()
        router = net.router("hub")
        router.receive(announcement("cust", PFX, (20, 5)))
        assert router.best_route(PFX) is not None
        router.receive(announcement("cust", PFX, (20, 10, 5)))
        assert router.best_route(PFX) is None

    def test_unknown_neighbor_rejected(self):
        net = star_network()
        with pytest.raises(ValueError):
            net.router("hub").receive(
                announcement("stranger", PFX, (9,))
            )

    def test_anycast_sites_do_not_adopt_each_other(self):
        """Two routers sharing an ASN (CDN sites) reject each other's
        announcements via the AS-path loop check."""
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        net.add_router("site-a", 47065)
        net.add_router("site-b", 47065)
        net.add_router("mid", 1)
        net.connect("site-a", "mid", Relationship.PROVIDER)
        net.connect("site-b", "mid", Relationship.PROVIDER)
        net.announce("site-a", PFX)
        net.converge()
        assert net.router("site-b").best_route(PFX) is None


class TestBestPathMaintenance:
    def test_fallback_to_worse_route_on_withdraw(self):
        net = star_network()
        hub = net.router("hub")
        hub.receive(announcement("cust", PFX, (20, 5)))
        hub.receive(announcement("prov", PFX, (40, 5)))
        assert hub.best_route(PFX).learned_from == "cust"
        hub.receive(withdrawal("cust", PFX))
        assert hub.best_route(PFX).learned_from == "prov"

    def test_fib_follows_best(self):
        net = star_network()
        hub = net.router("hub")
        hub.receive(announcement("prov", PFX, (40, 5)))
        net.converge()
        assert net.next_hop("hub", ADDR) == "prov"
        hub.receive(announcement("cust", PFX, (20, 5)))
        net.converge()
        assert net.next_hop("hub", ADDR) == "cust"

    def test_longest_prefix_match_in_fib(self):
        """Superprefix + specific: the /24 wins while present, the /23
        takes over after (the §3 mechanism)."""
        net = star_network()
        net.announce("hub", SUPER)
        net.announce("cust", PFX)
        net.converge()
        assert net.next_hop("hub", ADDR) == "cust"
        net.withdraw("cust", PFX)
        net.converge()
        assert net.next_hop("hub", ADDR) == "hub"

    def test_new_session_receives_existing_table(self):
        net = star_network()
        net.announce("hub", PFX)
        net.converge()
        net.add_router("late", 50)
        net.connect("hub", "late", Relationship.CUSTOMER)
        net.converge()
        assert net.router("late").best_route(PFX) is not None
