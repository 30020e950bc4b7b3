"""Unit tests for BgpNetwork construction and control surface."""

import pytest

from repro import telemetry
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.session import SessionTiming
from repro.net.addr import IPv4Address, IPv4Prefix

from tests.conftest import build_line_network, counter_values

PFX = IPv4Prefix.parse("184.164.244.0/24")
ADDR = IPv4Address.parse("184.164.244.10")


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = BgpNetwork()
        net.add_router("a", 1)
        with pytest.raises(ValueError):
            net.add_router("a", 2)

    def test_shared_asn_allowed(self):
        net = BgpNetwork()
        net.add_router("site-a", 47065)
        net.add_router("site-b", 47065)

    def test_self_link_rejected(self):
        net = BgpNetwork()
        net.add_router("a", 1)
        with pytest.raises(ValueError):
            net.connect("a", "a", Relationship.PEER)

    def test_duplicate_link_rejected(self):
        net = BgpNetwork()
        net.add_router("a", 1)
        net.add_router("b", 2)
        net.connect("a", "b", Relationship.PEER)
        with pytest.raises(ValueError):
            net.connect("b", "a", Relationship.PEER)

    def test_unknown_router_in_connect(self):
        net = BgpNetwork()
        net.add_router("a", 1)
        with pytest.raises(KeyError):
            net.connect("a", "ghost", Relationship.PEER)

    def test_relationships_are_inverse_views(self):
        net = BgpNetwork()
        net.add_router("cust", 1)
        net.add_router("prov", 2)
        net.connect("cust", "prov", Relationship.PROVIDER)
        assert net.neighbors("cust")["prov"] is Relationship.PROVIDER
        assert net.neighbors("prov")["cust"] is Relationship.CUSTOMER

    def test_link_latency_recorded(self):
        net = BgpNetwork(default_timing=SessionTiming(latency=0.2))
        net.add_router("a", 1)
        net.add_router("b", 2)
        net.connect("a", "b", Relationship.PEER, latency=0.07)
        assert net.link_latency[frozenset(("a", "b"))] == 0.07

    def test_sessions_count_into_the_networks_telemetry(self):
        """A network's sessions count into the registry its routers and
        engine do -- the one active when the network was built --
        whatever is active when a link comes up later."""
        built, later = telemetry.Telemetry(), telemetry.Telemetry()
        with telemetry.using(built):
            net = BgpNetwork()
            net.add_router("a", 1)
            net.add_router("b", 2)
        with telemetry.using(later):
            net.connect("a", "b", Relationship.PEER)
        net.announce("a", PFX)
        net.converge()
        assert counter_values(built)["bgp.updates_sent"] == 1
        assert counter_values(later) == {}


class TestControlSurface:
    def test_announce_propagates_along_chain(self):
        net = build_line_network(5)
        net.announce("r0", PFX)
        net.converge()
        for i in range(5):
            assert net.router(f"r{i}").best_route(PFX) is not None
        # AS path accumulates one ASN per hop.
        assert net.router("r4").best_route(PFX).as_path == (103, 102, 101, 100)

    def test_withdraw_all_returns_prefixes(self):
        net = build_line_network(2)
        other = IPv4Prefix.parse("184.164.245.0/24")
        net.announce("r0", PFX)
        net.announce("r0", other)
        net.converge()
        withdrawn = net.withdraw_all("r0")
        assert set(withdrawn) == {PFX, other}
        net.converge()
        assert net.router("r1").best_route(PFX) is None

    def test_next_hop_chain(self):
        net = build_line_network(3)
        net.announce("r0", PFX)
        net.converge()
        assert net.next_hop("r2", ADDR) == "r1"
        assert net.next_hop("r1", ADDR) == "r0"
        assert net.next_hop("r0", ADDR) == "r0"

    def test_next_hop_no_route(self):
        net = build_line_network(2)
        assert net.next_hop("r1", ADDR) is None

    def test_converge_returns_quiet_time(self):
        net = build_line_network(3)
        net.announce("r0", PFX)
        quiet = net.converge()
        assert quiet == net.now
        assert net.engine.pending == 0

    def test_run_for_advances_clock(self):
        net = build_line_network(2)
        net.run_for(12.5)
        assert net.now == 12.5

    def test_converge_deadline_clamps_clock(self):
        """An event scheduled past the deadline must not run, and the
        clock must stop *at* the deadline -- not overshoot to the
        event's time (regression: converge used to step first and check
        the deadline after)."""
        net = build_line_network(2)
        fired = []
        net.engine.schedule(100.0, lambda: fired.append(net.now))
        quiet = net.converge(max_seconds=5.0)
        assert quiet == 5.0
        assert net.now == 5.0
        assert fired == []
        assert net.engine.pending == 1  # the overdue event stays queued
        # A later unbounded converge still runs it.
        net.converge()
        assert fired == [100.0]

    def test_converge_deadline_runs_events_at_deadline(self):
        net = build_line_network(2)
        fired = []
        net.engine.schedule(5.0, lambda: fired.append(net.now))
        net.converge(max_seconds=5.0)
        assert fired == [5.0]

    def test_determinism_for_fixed_seed(self):
        def run(seed):
            net = build_line_network(6, seed=seed, timing=SessionTiming(jitter=1.0, mrai=5.0))
            net.announce("r0", PFX)
            net.converge()
            return net.now

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_fib_delay_wiring(self):
        """With fib_delay configured, the FIB lags the Loc-RIB."""
        timing = SessionTiming(latency=0.01, jitter=0.0, mrai=0.0, fib_delay=5.0)
        net = build_line_network(2, timing=timing)
        net.announce("r0", PFX)
        # Let the BGP exchange finish but not the FIB download.
        net.run_for(1.0)
        assert net.router("r1").best_route(PFX) is not None
        assert net.next_hop("r1", ADDR) is None
        net.converge()
        assert net.next_hop("r1", ADDR) == "r0"
