"""Tests for FIB-driven forwarding (static and event-driven)."""


from repro import telemetry
from repro.bgp.policy import Relationship
from repro.dataplane.forwarding import DropReason, ForwardingPlane
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.topology.generator import Topology, TopologyParams
from repro.topology.geo import Location
from repro.topology.relationships import AsClass, AsInfo

from tests.conftest import FAST_TIMING, install_fib

PFX = IPv4Prefix.parse("184.164.244.0/24")
ADDR = IPv4Address.parse("184.164.244.10")


def chain_topology(n: int = 4) -> Topology:
    topo = Topology(params=TopologyParams())
    loc = Location("us-west", 0.0, 0.0)
    client = IPv4Prefix.parse("10.0.0.0/24")
    for i in range(n):
        topo.add_as(
            AsInfo(
                f"r{i}", 100 + i,
                AsClass.EYEBALL if i == 0 else AsClass.TRANSIT,
                loc,
                prefix=client if i == 0 else None,
                tags={"web-clients"} if i == 0 else set(),
            )
        )
    for i in range(n - 1):
        topo.link(f"r{i}", f"r{i + 1}", Relationship.PROVIDER)
    return topo


def make_plane(n: int = 4):
    topo = chain_topology(n)
    net = topo.build_network(seed=0, timing=FAST_TIMING)
    return topo, net, ForwardingPlane(net, topo)


class TestSnapshotPath:
    def test_delivery_at_origin(self):
        topo, net, plane = make_plane()
        net.announce("r0", PFX)
        net.converge()
        result = plane.snapshot_path("r3", ADDR)
        assert result.delivered
        assert result.delivered_to == "r0"
        assert result.path == ("r3", "r2", "r1", "r0")

    def test_no_route(self):
        topo, net, plane = make_plane()
        result = plane.snapshot_path("r3", ADDR)
        assert not result.delivered
        assert result.drop_reason is DropReason.NO_ROUTE

    def test_loop_detected(self):
        topo, net, plane = make_plane(2)
        # Manufacture a loop by writing FIBs by hand.
        install_fib(net, "r0", PFX, "r1")
        install_fib(net, "r1", PFX, "r0")
        result = plane.snapshot_path("r0", ADDR)
        assert not result.delivered
        assert result.drop_reason is DropReason.LOOP


class TestEventDrivenForward:
    def test_delivery_consumes_latency(self):
        topo, net, plane = make_plane()
        net.announce("r0", PFX)
        net.converge()
        results = []
        start = net.now
        plane.forward("r3", ADDR, results.append)
        net.converge()
        assert len(results) == 1
        assert results[0].delivered_to == "r0"
        assert results[0].completed_at > start

    def test_drop_on_no_route_records_diagnostics(self):
        topo, net, plane = make_plane()
        results = []
        plane.forward("r3", ADDR, results.append)
        net.converge()
        assert not results[0].delivered
        assert results[0].drop_reason is DropReason.NO_ROUTE

    def test_stable_loop_dropped_as_loop(self):
        """A packet caught in a *stable* loop (every revisited FIB entry
        unchanged) is dropped as LOOP on the first revisit instead of
        burning all MAX_HOPS hops to a TTL_EXCEEDED drop."""
        topo, net, plane = make_plane(2)
        install_fib(net, "r0", PFX, "r1")
        install_fib(net, "r1", PFX, "r0")
        results = []
        plane.forward("r0", ADDR, results.append)
        net.converge()
        assert not results[0].delivered
        assert results[0].drop_reason is DropReason.LOOP
        assert len(results[0].path) <= 4  # r0 r1 r0 -- not MAX_HOPS

    def test_transient_loop_keeps_forwarding(self):
        """Revisiting a node whose FIB entry *changed* mid-flight is a
        transient loop (convergence in progress): the packet keeps going
        and can still be delivered."""
        topo, net, plane = make_plane(2)
        install_fib(net, "r0", PFX, "r1")
        install_fib(net, "r1", PFX, "r0")
        results = []
        plane.forward("r0", ADDR, results.append)
        # Reroute r0 while the packet is on its way to r1 and back: the
        # revisit of r0 sees a *different* next hop (itself -- a local
        # delivery), so it is not treated as a stable loop.
        install_fib(net, "r0", PFX, "r0")
        net.converge()
        assert results[0].delivered_to == "r0"
        assert results[0].drop_reason is None
        assert results[0].path.count("r0") == 2

    def test_a_write_behind_the_packet_does_not_reach_back(self):
        """A FIB written after the packet left that router changes
        nothing: the hops already taken keep what they read."""
        topo, net, plane = make_plane(2)
        install_fib(net, "r0", PFX, "r1")
        install_fib(net, "r1", PFX, "r0")
        results = []
        plane.forward("r0", ADDR, results.append)
        hop = topo.link_latency("r0", "r1")
        # r1 would now deliver, but the packet left it at t = hop and is
        # back at r0 (unchanged: a stable loop) at t = 2 * hop.
        net.engine.schedule(1.5 * hop, lambda: install_fib(net, "r1", PFX, "r1"))
        net.converge()
        assert results[0].drop_reason is DropReason.LOOP
        assert results[0].path == ("r0", "r1", "r0")

    def test_a_hop_at_the_write_instant_counts_as_taken(self):
        """The tie rule: a hop whose arrival time equals a FIB write's
        time has read the FIB before the write."""
        topo, net, plane = make_plane(2)
        install_fib(net, "r1", PFX, "r1")
        results = []
        plane.forward("r1", ADDR, results.append)
        install_fib(net, "r1", PFX, None)  # same instant as hop 0
        net.converge()
        assert results[0].delivered_to == "r1"

    def test_drops_under_churn_are_all_counted(self):
        """Long sweeps churn out drops forever; each forward reports its
        own and the ``dataplane.drops`` counter counts them all."""
        # no route announced: every forward is a NO_ROUTE drop
        with telemetry.using(telemetry.Telemetry()) as active:
            topo, net, plane = make_plane(2)
        results = []
        for _ in range(1124):
            plane.forward("r1", ADDR, results.append)
        net.converge()
        assert [r.drop_reason for r in results] == [DropReason.NO_ROUTE] * 1124
        assert active.counters["dataplane.drops"].value == 1124

    def test_packet_rerouted_mid_flight(self):
        """A packet in flight follows whatever FIBs say at each hop: if
        the route flips while it travels, the delivery point changes --
        the §3 convergence phenomenon."""
        topo = chain_topology(4)
        net = topo.build_network(seed=0, timing=FAST_TIMING)
        plane = ForwardingPlane(net, topo)
        net.announce("r0", PFX)
        net.converge()
        results = []
        plane.forward("r3", ADDR, results.append)
        # Flip r1's FIB toward a local origin while the packet is at r3.
        install_fib(net, "r1", PFX, "r1")
        net.converge()
        assert results[0].delivered_to == "r1"
        assert results[0].path == ("r3", "r2", "r1")

    def test_departure_delay_reads_the_fibs_at_arrival(self):
        """A packet sent ``delay`` seconds ahead (the reply leg after the
        request leg) reads the FIBs of its arrival, not of its send."""
        topo = chain_topology(4)
        net = topo.build_network(seed=0, timing=FAST_TIMING)
        plane = ForwardingPlane(net, topo)
        net.announce("r0", PFX)
        net.converge()
        results = []
        start = net.now
        plane.forward("r3", ADDR, results.append, delay=5.0)
        net.engine.schedule(1.0, lambda: install_fib(net, "r2", PFX, "r2"))
        net.converge()
        assert results[0].delivered_to == "r2"
        assert results[0].completed_at == start + 5.0 + topo.link_latency("r3", "r2")


class TestClientDirection:
    def test_latency_to_client(self):
        topo, net, plane = make_plane()
        latency = plane.latency_to_client("r3", "r0")
        assert latency is not None
        assert latency > 0

    def test_latency_unreachable(self):
        topo = chain_topology(2)
        lonely = AsInfo("x", 999, AsClass.STUB, Location("us-west", 0, 0))
        topo.add_as(lonely)
        net = topo.build_network(seed=0, timing=FAST_TIMING)
        plane = ForwardingPlane(net, topo)
        assert plane.latency_to_client("r1", "x") is None

    def test_static_routes_cached(self):
        """The path memo lives on the topology: a second plane over it
        solves nothing again."""
        topo, net, plane = make_plane()
        plane.latency_to_client("r3", "r0")
        next_hops = topo.static_routes_cache()["r0"]
        assert ForwardingPlane(net, topo).latency_to_client("r2", "r0") is not None
        assert topo.static_routes_cache()["r0"] is next_hops
