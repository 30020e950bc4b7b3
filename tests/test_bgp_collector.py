"""Unit tests for route collectors."""

import pytest

from repro.bgp.collector import RouteCollector
from repro.bgp.session import SessionTiming
from repro.net.addr import IPv4Prefix

from tests.conftest import build_line_network

PFX = IPv4Prefix.parse("184.164.244.0/24")


def collector_on_line(n=4, peers=("r1", "r2", "r3")):
    net = build_line_network(n)
    coll = RouteCollector("ris", net)
    for peer in peers:
        coll.attach(peer)
    return net, coll


class TestCollector:
    def test_records_announcements(self):
        net, coll = collector_on_line()
        net.announce("r0", PFX)
        net.converge()
        announcing_peers = {e.peer for e in coll.entries if e.announce}
        assert announcing_peers == {"r1", "r2", "r3"}

    def test_records_withdrawals(self):
        net, coll = collector_on_line()
        net.announce("r0", PFX)
        net.converge()
        net.withdraw("r0", PFX)
        net.converge()
        withdrawing = {e.peer for e in coll.entries if not e.announce}
        assert withdrawing == {"r1", "r2", "r3"}

    def test_entries_carry_as_paths(self):
        net, coll = collector_on_line()
        net.announce("r0", PFX)
        net.converge()
        for entry in coll.entries:
            if entry.announce:
                assert entry.as_path[-1] == 100  # origin ASN

    def test_timestamps_monotone_per_peer(self):
        net, coll = collector_on_line()
        net.announce("r0", PFX)
        net.converge()
        net.withdraw("r0", PFX)
        net.converge()
        for peer in coll.peers:
            times = [e.time for e in coll.entries if e.peer == peer]
            assert times == sorted(times)

    def test_duplicate_attach_rejected(self):
        net, coll = collector_on_line()
        with pytest.raises(ValueError):
            coll.attach("r1")

    def test_attach_mid_experiment_gets_table_dump(self):
        net = build_line_network(3)
        net.announce("r0", PFX)
        net.converge()
        coll = RouteCollector("late", net)
        coll.attach("r2")
        net.converge()
        assert [(e.peer, e.prefix) for e in coll.entries if e.announce] == [("r2", PFX)]

    def test_peers_are_listed_in_attach_order_as_a_copy(self):
        net, coll = collector_on_line(peers=("r3", "r1"))
        peers = coll.peers
        assert peers == ["r3", "r1"]
        peers.append("r2")
        assert coll.peers == ["r3", "r1"]

    def test_attach_marks_the_network_reshaped(self):
        net = build_line_network(3)
        net.reshaped = False
        RouteCollector("ris", net).attach("r1")
        assert net.reshaped

    def test_attach_uses_the_network_default_timing(self):
        """Both hops -- r0 to r1, r1 to the collector -- take the
        network's latency."""
        arrivals = {}
        for latency in (0.05, 30.0):
            net = build_line_network(2, timing=SessionTiming(latency=latency, jitter=0.0, mrai=0.0))
            coll = RouteCollector("ris", net)
            coll.attach("r1")
            net.announce("r0", PFX)
            net.converge()
            arrivals[latency] = [e.time for e in coll.entries if e.announce]
        assert len(arrivals[0.05]) == len(arrivals[30.0]) == 1
        assert arrivals[30.0][0] - arrivals[0.05][0] >= 59.0

    def test_clear(self):
        net, coll = collector_on_line()
        net.announce("r0", PFX)
        net.converge()
        coll.clear()
        assert coll.entries == []
        # peers stay attached after clear
        assert coll.peers == ["r1", "r2", "r3"]
