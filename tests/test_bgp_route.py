"""Unit tests for routes and the decision process."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp.policy import LOCAL_PREF, Relationship, exported, imported
from repro.bgp.route import Route, better, select_best
from repro.bgp.router import BgpRouter, OriginConfig
from repro.net.addr import IPv4Prefix

PFX = IPv4Prefix.parse("184.164.244.0/24")


def route(as_path=(1,), learned_from="n1", local_pref=100, origin="o") -> Route:
    return Route(
        prefix=PFX,
        as_path=tuple(as_path),
        learned_from=learned_from,
        local_pref=local_pref,
        origin_node=origin,
    )


class TestDecisionProcess:
    def test_higher_local_pref_wins(self):
        customer = route(local_pref=300, as_path=(1, 2, 3))
        peer = route(local_pref=200, as_path=(9,))
        assert better(customer, peer)
        assert not better(peer, customer)

    def test_shorter_path_wins_on_equal_pref(self):
        short = route(as_path=(1, 2))
        long = route(as_path=(3, 4, 5))
        assert better(short, long)

    def test_prepending_loses_on_equal_pref(self):
        """The proactive-prepending mechanism: 3 extra hops lose to the
        non-prepended route at the same LOCAL_PREF."""
        plain = route(as_path=(47065,), learned_from="a")
        prepended = route(as_path=(47065,) * 4, learned_from="b")
        assert better(plain, prepended)

    def test_local_pref_beats_prepending(self):
        """...but LOCAL_PREF overrides path length, which is how
        Appendix C.1 explains prepending's lost control."""
        prepended_customer = route(as_path=(47065,) * 6, local_pref=300)
        plain_provider = route(as_path=(47065,), local_pref=100)
        assert better(prepended_customer, plain_provider)

    def test_tiebreak_is_deterministic(self):
        a = route(learned_from="aaa")
        b = route(learned_from="bbb")
        assert better(a, b)
        assert not better(b, a)

    def test_select_best_empty(self):
        assert select_best([]) is None

    def test_select_best_total_order(self):
        routes = [
            route(local_pref=100, as_path=(1,), learned_from="x"),
            route(local_pref=300, as_path=(1, 2, 3, 4), learned_from="y"),
            route(local_pref=300, as_path=(1, 2), learned_from="z"),
        ]
        best = select_best(routes)
        assert best.local_pref == 300
        assert best.as_path == (1, 2)

    @given(st.permutations(range(4)))
    def test_select_best_order_independent(self, order):
        routes = [
            route(local_pref=100, learned_from="a"),
            route(local_pref=200, learned_from="b"),
            route(local_pref=200, as_path=(1, 2), learned_from="c"),
            route(local_pref=300, as_path=(1, 2, 3), learned_from="d"),
        ]
        shuffled = [routes[i] for i in order]
        assert select_best(shuffled) == select_best(routes)


class TestRouteOps:
    """What used to be ``Route`` helpers is export / import policy now;
    the differential against the parent's code is test_policy_pair.py."""

    def test_extended_by_prepends_once(self):
        r = route(as_path=(2, 3), learned_from="n1")
        out = exported(r, "me", 1, None, Relationship.CUSTOMER, "n2", Relationship.PEER)
        assert out.as_path == (1, 2, 3)
        assert (out.learned_from, out.origin_node, out.prefix) == ("me", "o", PFX)

    def test_extended_by_with_prepending(self):
        r = route(as_path=(), learned_from=None)
        out = exported(r, "me", 47065, OriginConfig(prepend=3), None, "n", Relationship.PROVIDER)
        assert out.as_path == (47065,) * 4

    def test_extended_by_rejects_negative(self):
        router = BgpRouter("me", 47065)
        with pytest.raises(ValueError):
            router.originate(PFX, prepend=-1)
        assert router.originated_prefixes() == []

    def test_contains_asn(self):
        """The loop check: a route with the importer's ASN in its path is
        not kept; any other is."""
        r = route(as_path=(1, 2, 3), local_pref=LOCAL_PREF[Relationship.PEER])
        assert imported(r, 2, Relationship.PEER) is None
        assert imported(r, 9, Relationship.PEER) is r
