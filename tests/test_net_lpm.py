"""Unit and property tests for the longest-prefix-match table."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiment import FailoverExperiment
from repro.core.techniques import TECHNIQUES
from repro.net.addr import IPv4Address, IPv4Prefix, IPv6Address, IPv6Prefix
from repro.net.lpm import LpmTable


def P(text: str) -> IPv4Prefix:
    return IPv4Prefix.parse(text)


def A(text: str) -> IPv4Address:
    return IPv4Address.parse(text)


# The two TestLpmTrie* classes keep their names so the test ids do not move.
class TestLpmTrieBasics:
    def test_empty_lookup(self):
        assert LpmTable().lookup(A("10.0.0.1")) is None

    def test_insert_and_exact_get(self):
        table = LpmTable()
        table.insert(P("10.0.0.0/8"), "x")
        assert table.get(P("10.0.0.0/8")) == "x"
        assert table.get(P("10.0.0.0/16")) is None

    def test_longest_match_wins(self):
        table = LpmTable()
        table.insert(P("10.0.0.0/8"), "coarse")
        table.insert(P("10.1.0.0/16"), "fine")
        assert table.lookup(A("10.1.2.3")) == (P("10.1.0.0/16"), "fine")
        assert table.lookup(A("10.2.0.0")) == (P("10.0.0.0/8"), "coarse")

    def test_superprefix_fallback_after_removal(self):
        """The longest-prefix-matching behaviour proactive-superprefix
        relies on: while the /24 exists it wins; after removal the /23
        takes over."""
        table = LpmTable()
        table.insert(P("184.164.244.0/23"), "backup")
        table.insert(P("184.164.244.0/24"), "specific")
        probe = A("184.164.244.10")
        assert table.lookup(probe)[1] == "specific"
        assert table.remove(P("184.164.244.0/24"))
        assert table.lookup(probe)[1] == "backup"

    def test_remove_missing_returns_false(self):
        table = LpmTable()
        assert not table.remove(P("10.0.0.0/8"))

    def test_replace_value(self):
        table = LpmTable()
        table.insert(P("10.0.0.0/8"), "a")
        table.insert(P("10.0.0.0/8"), "b")
        assert table.get(P("10.0.0.0/8")) == "b"
        assert len(table) == 1

    def test_len_tracks_distinct_prefixes(self):
        table = LpmTable()
        table.insert(P("10.0.0.0/8"), 1)
        table.insert(P("10.0.0.0/16"), 2)
        assert len(table) == 2
        table.remove(P("10.0.0.0/8"))
        assert len(table) == 1

    def test_contains(self):
        table = LpmTable()
        table.insert(P("10.0.0.0/8"), 1)
        assert P("10.0.0.0/8") in table
        assert P("10.0.0.0/9") not in table

    def test_default_route(self):
        table = LpmTable()
        table.insert(P("0.0.0.0/0"), "default")
        assert table.lookup(A("203.0.113.7")) == (P("0.0.0.0/0"), "default")

    def test_host_route(self):
        table = LpmTable()
        table.insert(P("10.0.0.0/8"), "net")
        table.insert(P("10.0.0.1/32"), "host")
        assert table.lookup(A("10.0.0.1"))[1] == "host"
        assert table.lookup(A("10.0.0.2"))[1] == "net"

    def test_items_returns_all(self):
        table = LpmTable()
        prefixes = [P("10.0.0.0/8"), P("10.1.0.0/16"), P("192.168.0.0/24")]
        for i, prefix in enumerate(prefixes):
            table.insert(prefix, i)
        assert dict(table.items()) == {p: i for i, p in enumerate(prefixes)}

    def test_clear(self):
        table = LpmTable()
        table.insert(P("10.0.0.0/8"), 1)
        table.clear()
        assert len(table) == 0
        assert table.lookup(A("10.0.0.1")) is None

    def test_lookup_returns_matched_prefix(self):
        table = LpmTable()
        table.insert(P("10.1.2.0/24"), "v")
        match = table.lookup(A("10.1.2.200"))
        assert match == (P("10.1.2.0/24"), "v")


class TestChurn:
    def test_churn_leaves_no_empty_bucket(self):
        """Announce/withdraw churn (reactive-anycast's steady state)
        must not grow the table: a bucket emptied by remove() is dropped,
        so the lengths a lookup probes return to the pre-churn set."""
        table = LpmTable()
        covering, flapping = P("184.164.244.0/23"), P("184.164.244.0/24")
        probe = A("184.164.244.10")
        table.insert(covering, "superprefix")  # steady announcement
        for _ in range(1000):
            table.insert(flapping, "specific")
            assert table.lookup(probe) == (flapping, "specific")
            assert table.remove(flapping)
            assert table.lookup(probe) == (covering, "superprefix")
        assert len(table) == 1
        assert list(table._buckets) == [23]
        assert table.remove(covering)
        assert len(table) == 0
        assert list(table.items()) == []
        assert table.lookup(probe) is None
        assert table._buckets == {} and table._probes == ()


class TestFibShape:
    def test_baseline_fibs_fit_two_probes(self, deployment):
        """The traffic that justifies a length-bucketed table
        (docs/architecture.md, "FIB shape"): over the converged
        baselines of every registered technique on the seed-42 testbed
        no FIB holds more than three entries or two prefix lengths. The
        day this fails, the structure needs re-measuring."""
        experiment = FailoverExperiment(deployment.topology, deployment)
        entries, lengths = Counter(), Counter()
        for name in sorted(TECHNIQUES):
            for state in experiment.baseline_for(TECHNIQUES[name]()).routers:
                entries[len(state.fib)] += 1
                lengths[len({prefix.length for prefix, _ in state.fib})] += 1
        assert max(entries) <= 3 and max(lengths) <= 2
        assert entries == {0: 416, 1: 1456, 2: 208}  # 10 techniques x 208 ASes
        assert lengths == {0: 416, 1: 1456, 2: 208}


class TestNoneValues:
    def test_insert_none_rejected(self):
        """None would be indistinguishable from 'absent' in get()."""
        table = LpmTable()
        with pytest.raises(ValueError, match="None"):
            table.insert(P("10.0.0.0/8"), None)
        assert len(table) == 0
        assert P("10.0.0.0/8") not in table

    def test_contains_agrees_with_get(self):
        table = LpmTable()
        table.insert(P("10.0.0.0/8"), 0)  # falsy value still counts
        assert P("10.0.0.0/8") in table
        assert table.get(P("10.0.0.0/8")) == 0
        table.remove(P("10.0.0.0/8"))
        assert P("10.0.0.0/8") not in table
        assert table.get(P("10.0.0.0/8")) is None


FAMILIES = {32: (IPv4Address, IPv4Prefix), 128: (IPv6Address, IPv6Prefix)}


def brute_force(reference, address):
    """The reference LPM: scan every stored prefix, keep the longest
    one that contains the address."""
    best = None
    for prefix, value in reference.items():
        if prefix.contains(address) and (best is None or prefix.length > best[0].length):
            best = (prefix, value)
    return best


def check_against_brute_force(bits, ops, probes):
    """Apply ``ops`` -- ("insert" | "remove", prefix, value) -- to a
    table and to a plain dict, comparing the two after every step."""
    table = LpmTable(bits=bits)
    reference = {}
    for op, prefix, value in ops:
        if op == "insert":  # a second insert of the same prefix replaces
            table.insert(prefix, value)
            reference[prefix] = value
        else:
            assert table.remove(prefix) == (reference.pop(prefix, None) is not None)
        assert len(table) == len(reference)
        assert dict(table.items()) == reference
        assert all(table._buckets.values())  # no empty bucket survives
        for probe in probes:
            assert table.lookup(probe) == brute_force(reference, probe)


@st.composite
def op_sequences(draw):
    """⟨bits, ops, probes⟩ over a small pool of nested prefixes, so that
    replaces, removals of present prefixes and longest-match ties between
    a prefix and its covering prefixes all actually occur."""
    bits = draw(st.sampled_from(sorted(FAMILIES)))
    address_type, prefix_type = FAMILIES[bits]
    addresses = st.builds(address_type, st.integers(min_value=0, max_value=2**bits - 1))
    bases = draw(st.lists(addresses, min_size=1, max_size=3))
    pool = [
        prefix_type.of(base, length)
        for base in bases
        for length in draw(st.lists(st.integers(0, bits), min_size=1, max_size=4, unique=True))
    ]
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["insert", "insert", "remove"]),
                  st.sampled_from(pool), st.integers()),
        max_size=30,
    ))
    probes = bases + draw(st.lists(addresses, max_size=3))
    probes += [prefix.address(prefix.num_addresses() - 1) for prefix in pool]
    return bits, ops, probes


prefix_strategy = st.builds(
    lambda value, length: IPv4Prefix.of(IPv4Address(value), length),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)


class TestLpmTrieProperties:
    def test_matches_brute_force(self, topology):
        """After every step of an insert / replace / remove sequence the
        table agrees with a brute-force scan -- on generated sequences
        in both families and on the real input, every client prefix of
        the seed-42 testbed."""
        clients = [info.prefix for info in topology.ases.values() if info.prefix is not None]
        assert Counter(prefix.length for prefix in clients) == {24: 147, 20: 3}
        default = P("0.0.0.0/0")
        probes = [prefix.address(1) for prefix in clients]
        probes.append(A("11.11.11.11"))  # a guaranteed miss until the /0 goes in
        ops = [("insert", prefix, i) for i, prefix in enumerate(clients)]
        ops.append(("insert", default, "default"))
        ops += [("insert", prefix, -i) for i, prefix in enumerate(clients[::7])]  # replace
        ops.append(("remove", default, None))
        ops += [("remove", prefix, None) for prefix in clients]
        check_against_brute_force(32, ops, probes)

        @settings(max_examples=100)
        @given(op_sequences())
        def generated(case):
            check_against_brute_force(*case)

        generated()

    @settings(max_examples=50)
    @given(st.lists(prefix_strategy, max_size=30, unique=True))
    def test_insert_remove_roundtrip(self, prefixes):
        table = LpmTable()
        for prefix in prefixes:
            table.insert(prefix, str(prefix))
        assert len(table) == len(prefixes)
        for prefix in prefixes:
            assert table.remove(prefix)
        assert len(table) == 0

    @settings(max_examples=30)
    @given(st.lists(prefix_strategy, max_size=20, unique=True))
    def test_items_roundtrip(self, prefixes):
        table = LpmTable()
        for prefix in prefixes:
            table.insert(prefix, prefix.length)
        assert sorted(p for p, _ in table.items()) == sorted(prefixes)
