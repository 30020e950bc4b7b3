"""Tests for IPv6 addressing and the family-generic LPM table.

The paper's techniques are family-agnostic ("a distinct prefix (e.g.,
/24 or /48)"); these tests verify the substrate handles /48-style IPv6
deployments end to end at the addressing/FIB layer.
"""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import IPv6Address, IPv6Prefix
from repro.net.lpm import LpmTable


class TestIPv6Address:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("::", 0),
            ("::1", 1),
            ("2001:db8::", 0x20010DB8 << 96),
            ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", (1 << 128) - 1),
            ("2001:db8:0:0:0:0:0:1", (0x20010DB8 << 96) + 1),
        ],
    )
    def test_parse(self, text, value):
        assert IPv6Address.parse(text).value == value

    @pytest.mark.parametrize(
        "bad",
        ["", ":::", "2001::db8::1", "12345::", "g::", "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9"],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            IPv6Address.parse(bad)

    def test_canonical_formatting(self):
        assert str(IPv6Address.parse("2001:0db8:0000:0000:0000:0000:0000:0001")) == "2001:db8::1"
        assert str(IPv6Address.parse("::")) == "::"
        assert str(IPv6Address.parse("1:0:0:2:0:0:0:3")) == "1:0:0:2::3"

    def test_no_compression_for_single_zero(self):
        assert str(IPv6Address.parse("1:0:2:3:4:5:6:7")) == "1:0:2:3:4:5:6:7"

    def test_ordering(self):
        assert IPv6Address.parse("::1") < IPv6Address.parse("::2")

    def test_bits(self):
        assert IPv6Address.parse("::1").bits == 128

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_str_parse_roundtrip(self, value):
        address = IPv6Address(value)
        assert IPv6Address.parse(str(address)) == address


class TestIPv6Prefix:
    def test_parse_48(self):
        """The per-site prefix size the paper names for IPv6."""
        prefix = IPv6Prefix.parse("2001:db8:1::/48")
        assert prefix.length == 48
        assert str(prefix) == "2001:db8:1::/48"

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            IPv6Prefix.parse("2001:db8::1/48")

    def test_contains(self):
        prefix = IPv6Prefix.parse("2001:db8:1::/48")
        assert prefix.contains(IPv6Address.parse("2001:db8:1::42"))
        assert not prefix.contains(IPv6Address.parse("2001:db8:2::42"))

    def test_covers_super_and_subnets(self):
        site = IPv6Prefix.parse("2001:db8:1::/48")
        covering = site.supernet(47)
        assert covering.covers(site)
        subnets = IPv6Prefix.parse("2001:db8::/47").subnets(48)
        assert site in subnets

    def test_subnet_enumeration_guard(self):
        with pytest.raises(ValueError):
            IPv6Prefix.parse("2001:db8::/32").subnets(128)

    def test_address_indexing(self):
        prefix = IPv6Prefix.parse("2001:db8:1::/48")
        assert str(prefix.address(1)) == "2001:db8:1::1"

    def test_of_masks_host_bits(self):
        prefix = IPv6Prefix.of(IPv6Address.parse("2001:db8:1::ffff"), 48)
        assert str(prefix) == "2001:db8:1::/48"


class TestDualStackTrie:
    def test_v6_trie_lpm(self):
        """The proactive-superprefix mechanism at /47 vs /48."""
        table = LpmTable(bits=128)
        site = IPv6Prefix.parse("2001:db8::/48")
        covering = IPv6Prefix.parse("2001:db8::/47")
        table.insert(covering, "backup")
        table.insert(site, "specific")
        probe = IPv6Address.parse("2001:db8::10")
        assert table.lookup(probe)[1] == "specific"
        table.remove(site)
        assert table.lookup(probe)[1] == "backup"

    def test_family_mixing_rejected(self):
        from repro.net.addr import IPv4Prefix

        table = LpmTable(bits=128)
        with pytest.raises(ValueError, match="family mismatch"):
            table.insert(IPv4Prefix.parse("10.0.0.0/8"), "x")

    def test_v4_trie_rejects_v6(self):
        table = LpmTable()
        with pytest.raises(ValueError, match="family mismatch"):
            table.insert(IPv6Prefix.parse("2001:db8::/48"), "x")

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            LpmTable(bits=64)

    def test_v6_items_roundtrip(self):
        table = LpmTable(bits=128)
        prefixes = [
            IPv6Prefix.parse("2001:db8::/48"),
            IPv6Prefix.parse("2001:db8:1::/48"),
            IPv6Prefix.parse("2001:db8::/32"),
        ]
        for i, prefix in enumerate(prefixes):
            table.insert(prefix, i)
        assert dict(table.items()) == {p: i for i, p in enumerate(prefixes)}


class TestV6BgpEndToEnd:
    def test_bgp_carries_v6_prefixes(self):
        """The routing substrate is family-agnostic: announcing a /48
        propagates and installs FIB state exactly like a /24."""
        from repro.bgp.network import BgpNetwork
        from tests.conftest import FAST_TIMING

        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        for i, name in enumerate(("site", "transit", "client")):
            router = net.add_router(name, 100 + i)
            router.fib = LpmTable(bits=128)
        net.add_provider("site", "transit")
        net.add_provider("client", "transit")
        prefix = IPv6Prefix.parse("2001:db8:1::/48")
        net.announce("site", prefix)
        net.converge()
        route = net.router("client").best_route(prefix)
        assert route is not None
        assert route.as_path == (101, 100)
        assert net.next_hop("client", IPv6Address.parse("2001:db8:1::10")) == "transit"
