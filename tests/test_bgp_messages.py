"""Unit tests for the update value: one shape for announce and withdraw."""

from repro.bgp.route import Route, Update
from repro.net.addr import IPv4Prefix

PFX = IPv4Prefix.parse("184.164.244.0/24")


def route(as_path=(1,), med=0) -> Route:
    return Route(PFX, tuple(as_path), "s", 200, "o", med)


class TestMessages:
    def test_announcement_fields(self):
        """An announcement carries the route the receiver stores."""
        a = Update("s", PFX, route((1, 2)), cause=7)
        assert a.sender == "s" == a.route.learned_from
        assert a.route.as_path == (1, 2)
        assert a.route.med == 0  # MED defaults to unset/zero
        assert a.cause == 7

    def test_announcement_with_med(self):
        assert Update("s", PFX, route(med=70), 0).route.med == 70

    def test_withdrawal_fields(self):
        w = Update("s", PFX, None, 0)
        assert w.prefix == PFX
        assert w.route is None
        assert w.cause == 0

    def test_messages_hashable(self):
        a1 = Update("s", PFX, route(), 0)
        a2 = Update("s", PFX, route(), 0)
        assert a1 == a2
        assert len({a1, a2}) == 1

    def test_update_union_covers_both(self):
        """Announce and withdraw are one type; only ``route`` tells them apart."""
        updates = [Update("s", PFX, route(), 0), Update("s", PFX, None, 0)]
        assert all(u.prefix == PFX for u in updates)
        assert [u.route is not None for u in updates] == [True, False]
