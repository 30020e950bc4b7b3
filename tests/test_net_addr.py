"""Unit tests for IPv4 address/prefix types."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import IPv4Address, IPv4Prefix


class TestIPv4Address:
    def test_parse_basic(self):
        assert IPv4Address.parse("10.0.0.1").value == (10 << 24) + 1

    def test_parse_all_octets(self):
        assert str(IPv4Address.parse("1.2.3.4")) == "1.2.3.4"

    def test_parse_max(self):
        assert IPv4Address.parse("255.255.255.255").value == 2**32 - 1

    def test_parse_zero(self):
        assert IPv4Address.parse("0.0.0.0").value == 0

    @pytest.mark.parametrize(
        "bad",
        ["256.0.0.1", "1.2.3", "1.2.3.4.5", "a.b.c.d", "01.2.3.4", "", "1..2.3"],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            IPv4Address.parse(bad)

    def test_value_range_validated(self):
        with pytest.raises(ValueError):
            IPv4Address(-1)
        with pytest.raises(ValueError):
            IPv4Address(2**32)

    def test_ordering(self):
        assert IPv4Address.parse("1.0.0.0") < IPv4Address.parse("2.0.0.0")
        assert IPv4Address.parse("10.0.0.2") > IPv4Address.parse("10.0.0.1")

    def test_int_conversion(self):
        assert int(IPv4Address.parse("0.0.1.0")) == 256

    def test_hashable_and_eq(self):
        a = IPv4Address.parse("10.1.2.3")
        b = IPv4Address.parse("10.1.2.3")
        assert a == b
        assert len({a, b}) == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_str_parse_roundtrip(self, value):
        addr = IPv4Address(value)
        assert IPv4Address.parse(str(addr)) == addr


class TestIPv4Prefix:
    def test_parse(self):
        p = IPv4Prefix.parse("184.164.244.0/24")
        assert p.length == 24
        assert str(p) == "184.164.244.0/24"

    def test_parse_rejects_host_bits(self):
        with pytest.raises(ValueError):
            IPv4Prefix.parse("10.0.0.1/24")

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/x"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            IPv4Prefix.parse(bad)

    def test_of_masks_host_bits(self):
        p = IPv4Prefix.of(IPv4Address.parse("10.1.2.3"), 16)
        assert str(p) == "10.1.0.0/16"

    def test_of_length_validated(self):
        with pytest.raises(ValueError):
            IPv4Prefix.of(IPv4Address.parse("10.0.0.0"), 33)

    def test_contains(self):
        p = IPv4Prefix.parse("10.1.0.0/16")
        assert p.contains(IPv4Address.parse("10.1.255.255"))
        assert not p.contains(IPv4Address.parse("10.2.0.0"))

    def test_zero_length_contains_everything(self):
        p = IPv4Prefix.parse("0.0.0.0/0")
        assert p.contains(IPv4Address.parse("255.1.2.3"))

    def test_covers(self):
        p23 = IPv4Prefix.parse("184.164.244.0/23")
        p24 = IPv4Prefix.parse("184.164.244.0/24")
        p24b = IPv4Prefix.parse("184.164.245.0/24")
        assert p23.covers(p24)
        assert p23.covers(p24b)
        assert p23.covers(p23)
        assert not p24.covers(p23)
        assert not p24.covers(p24b)

    def test_address_indexing(self):
        p = IPv4Prefix.parse("10.0.0.0/24")
        assert str(p.address(1)) == "10.0.0.1"
        assert str(p.address(255)) == "10.0.0.255"
        with pytest.raises(ValueError):
            p.address(256)

    def test_address_negative_index_rejected(self):
        with pytest.raises(ValueError, match="host index -1 out of range for /24"):
            IPv4Prefix.parse("10.0.0.0/24").address(-1)
        assert str(IPv4Prefix.parse("10.0.0.7/32").address(0)) == "10.0.0.7"

    def test_num_addresses(self):
        assert IPv4Prefix.parse("10.0.0.0/24").num_addresses() == 256
        assert IPv4Prefix.parse("10.0.0.0/32").num_addresses() == 1

    def test_subnets(self):
        p = IPv4Prefix.parse("184.164.244.0/23")
        subs = p.subnets(24)
        assert [str(s) for s in subs] == ["184.164.244.0/24", "184.164.245.0/24"]

    def test_subnets_same_length_is_identity(self):
        p = IPv4Prefix.parse("10.0.0.0/24")
        assert p.subnets(24) == [p]

    def test_subnets_shorter_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix.parse("10.0.0.0/24").subnets(23)

    def test_subnet_enumeration_guard(self):
        with pytest.raises(ValueError, match="refusing to enumerate 2097152 subnets"):
            IPv4Prefix.parse("0.0.0.0/0").subnets(21)
        assert len(IPv4Prefix.parse("10.0.0.0/8").subnets(16)) == 256

    def test_ordering(self):
        a = IPv4Prefix.parse("10.0.0.0/8")
        b = IPv4Prefix.parse("10.0.0.0/16")
        assert a < b  # same network, shorter length first

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=32))
    def test_of_contains_seed_address(self, value, length):
        addr = IPv4Address(value)
        prefix = IPv4Prefix.of(addr, length)
        assert prefix.contains(addr)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=32))
    def test_str_parse_roundtrip(self, value, length):
        prefix = IPv4Prefix.of(IPv4Address(value), length)
        assert IPv4Prefix.parse(str(prefix)) == prefix

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=32),
    )
    def test_covers_consistent_with_contains(self, value, l1, l2):
        addr = IPv4Address(value)
        p1 = IPv4Prefix.of(addr, min(l1, l2))
        p2 = IPv4Prefix.of(addr, max(l1, l2))
        assert p1.covers(p2)

    def test_mask_values(self):
        assert IPv4Prefix.parse("0.0.0.0/0").mask() == 0
        assert IPv4Prefix.parse("10.0.0.0/8").mask() == 0xFF000000
        assert IPv4Prefix.parse("10.0.0.0/32").mask() == 0xFFFFFFFF


#: prefixes from any address and length
PREFIXES = st.builds(
    lambda value, length: IPv4Prefix.of(IPv4Address(value), length),
    st.integers(0, 2**32 - 1), st.integers(0, 32),
)


class TestPrefixHash:
    """The hash is taken once, at construction, and is the value the
    dataclass would compute per call: prefix sets iterate in the same
    order, so every table keyed by prefix prints the same bytes."""

    @given(PREFIXES)
    def test_hash_is_the_field_tuple_hash(self, prefix):
        assert hash(prefix) == hash((prefix.network, prefix.length))

    @given(st.lists(PREFIXES, max_size=40))
    def test_a_prefix_set_iterates_like_the_field_tuples(self, prefixes):
        tuples = {(p.network, p.length) for p in prefixes}
        assert [(p.network, p.length) for p in set(prefixes)] == list(tuples)

    @given(PREFIXES)
    def test_pickle_and_copy_keep_equality_and_hash(self, prefix):
        for twin in (
            pickle.loads(pickle.dumps(prefix)), copy.copy(prefix), copy.deepcopy(prefix)
        ):
            assert type(twin) is type(prefix)
            assert twin == prefix and hash(twin) == hash(prefix)

    @given(st.lists(PREFIXES, max_size=40))
    def test_sorted_is_by_network_then_length(self, prefixes):
        assert sorted(prefixes) == sorted(prefixes, key=lambda p: (p.network, p.length))

    def test_the_cached_hash_is_not_a_field(self):
        p = IPv4Prefix.parse("184.164.244.0/24")
        assert repr(p) == "IPv4Prefix('184.164.244.0/24')"
        assert IPv4Prefix.__match_args__ == ("network", "length")
        assert p == IPv4Prefix(p.network, 24) and not p < IPv4Prefix(p.network, 24)
