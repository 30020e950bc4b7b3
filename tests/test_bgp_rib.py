"""The router's tables -- Adj-RIB-In ``{prefix: {neighbor: route}}`` and
Loc-RIB ``{prefix: route}`` -- and the per-prefix decision, driven the
way the simulator drives them: through ``receive`` and the session ops."""

from repro.bgp.network import BgpNetwork
from repro.bgp.policy import LOCAL_ORIGIN_PREF, LOCAL_PREF, Relationship
from repro.bgp.router import BgpRouter
from repro.net.addr import IPv4Prefix

from tests.conftest import FAST_TIMING, announcement, withdrawal

PFX = IPv4Prefix.parse("184.164.244.0/24")
PFX2 = IPv4Prefix.parse("184.164.245.0/24")


def hub() -> BgpRouter:
    """A router (AS 10) with two peers ``a`` (AS 1) and ``b`` (AS 2)."""
    net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
    net.add_router("hub", 10)
    net.add_router("a", 1)
    net.add_router("b", 2)
    net.connect("hub", "a", Relationship.PEER)
    net.connect("hub", "b", Relationship.PEER)
    return net.router("hub")


class TestAdjRibIn:
    def test_update_and_candidates(self):
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        router.receive(announcement("b", PFX, (2,)))
        assert set(router.adj_rib_in[PFX]) == {"a", "b"}
        assert {r.learned_from for r in router.adj_rib_in[PFX].values()} == {"a", "b"}

    def test_update_replaces_previous_advertisement(self):
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        router.receive(announcement("a", PFX, (1, 2)))
        assert len(router.adj_rib_in[PFX]) == 1
        assert router.adj_rib_in[PFX]["a"].as_path == (1, 2)

    def test_withdraw(self):
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        router.receive(withdrawal("a", PFX))
        assert PFX not in router.adj_rib_in
        router.receive(withdrawal("a", PFX))  # nothing left to forget
        assert PFX not in router.adj_rib_in

    def test_withdraw_unknown_prefix(self):
        router = hub()
        router.receive(withdrawal("a", PFX))
        assert router.adj_rib_in == {} == router.loc_rib

    def test_prefixes(self):
        """A prefix nobody advertises has no entry (snapshots and the
        invariant checker read the keys)."""
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        assert list(router.adj_rib_in) == [PFX]
        router.receive(withdrawal("a", PFX))
        assert list(router.adj_rib_in) == []

    def test_drop_neighbor(self):
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        router.receive(announcement("a", PFX2, (1,)))
        router.receive(announcement("b", PFX, (2,)))
        router.flush_neighbor("a", cause=0)
        assert set(router.adj_rib_in) == {PFX}
        assert set(router.adj_rib_in[PFX]) == {"b"}
        # ... and the decision process reran for both prefixes
        assert router.loc_rib[PFX].learned_from == "b"
        assert PFX2 not in router.loc_rib

    def test_stale_routes_remain_until_withdrawn(self):
        """The invariant path hunting depends on: nothing expires
        implicitly; only explicit withdrawals remove alternates."""
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        router.receive(announcement("b", PFX, (2,)))
        router.receive(withdrawal("a", PFX))
        assert list(router.adj_rib_in[PFX]) == ["b"]


class TestLocRib:
    def test_set_get(self):
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        assert router.loc_rib[PFX] is router.adj_rib_in[PFX]["a"]
        assert router.best_route(PFX) is router.loc_rib[PFX]
        assert len(router.loc_rib) == 1

    def test_set_none_removes(self):
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        router.receive(withdrawal("a", PFX))
        assert router.best_route(PFX) is None
        assert len(router.loc_rib) == 0

    def test_items(self):
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        assert list(router.loc_rib.items()) == [(PFX, router.adj_rib_in[PFX]["a"])]


class TestDecide:
    def test_local_route_always_wins(self):
        router = hub()
        router.receive(announcement("a", PFX, (1,)))
        router.originate(PFX)
        local = router.loc_rib[PFX]
        assert (local.learned_from, local.as_path, local.local_pref) == (
            None, (), LOCAL_ORIGIN_PREF)
        assert local.origin_node == "hub"
        router.withdraw_origin(PFX)
        assert router.loc_rib[PFX].learned_from == "a"

    def test_without_local_route(self):
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        for node, asn in (("hub", 10), ("prov", 1), ("cust", 2)):
            net.add_router(node, asn)
        net.connect("hub", "prov", Relationship.PROVIDER)
        net.connect("hub", "cust", Relationship.CUSTOMER)
        router = net.router("hub")
        router.receive(announcement("prov", PFX, (1,)))
        router.receive(announcement("cust", PFX, (2, 3, 4)))
        assert router.loc_rib[PFX].learned_from == "cust"
        assert router.loc_rib[PFX].local_pref == LOCAL_PREF[Relationship.CUSTOMER]

    def test_empty(self):
        router = hub()
        router.reselect_uncaused(PFX)
        assert router.best_route(PFX) is None
        assert router.loc_rib == {}
