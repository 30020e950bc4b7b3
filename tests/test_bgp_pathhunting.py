"""Dynamics tests: path hunting, convergence asymmetry, and the
superprefix blackhole window -- the BGP phenomena the paper's argument
rests on (§3, Appendices A & B)."""

import itertools


from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.session import SessionTiming
from repro.net.addr import IPv4Address, IPv4Prefix

PFX = IPv4Prefix.parse("184.164.244.0/24")
SUPER = IPv4Prefix.parse("184.164.244.0/23")
ADDR = IPv4Address.parse("184.164.244.10")

PACED = SessionTiming(latency=0.05, jitter=0.1, mrai=5.0)


def rich_core(seed: int = 0, timing: SessionTiming = PACED) -> BgpNetwork:
    """A 5-clique of tier-1s, each with two customers that are also
    customers of the next tier-1 -- enough alternates to hunt through."""
    net = BgpNetwork(seed=seed, default_timing=timing)
    t1 = [f"t1-{i}" for i in range(5)]
    for i, node in enumerate(t1):
        net.add_router(node, 10 + i)
    for a, b in itertools.combinations(t1, 2):
        net.connect(a, b, Relationship.PEER)
    asn = 100
    for i in range(5):
        for j in range(2):
            node = f"c-{i}-{j}"
            net.add_router(node, asn)
            asn += 1
            net.connect(node, t1[i], Relationship.PROVIDER)
            net.connect(node, t1[(i + 1 + j) % 5], Relationship.PROVIDER)
    net.add_router("origin", 999)
    net.connect("origin", "c-0-0", Relationship.PROVIDER)
    return net


class TestPathHunting:
    def test_withdrawal_explores_stale_paths(self):
        """After the origin withdraws, some router must transiently
        select a route that is already invalid (learned before the
        withdrawal reached its sender)."""
        net = rich_core()
        net.announce("origin", PFX)
        net.converge()
        snapshot = {
            node: net.router(node).best_route(PFX) for node in net.nodes()
        }
        net.withdraw("origin", PFX)
        explored_stale = False
        deadline = net.now + 600
        while net.engine.pending and net.now < deadline:
            net.engine.step()
            for node in net.nodes():
                current = net.router(node).best_route(PFX)
                if current is not None and current != snapshot[node]:
                    explored_stale = True
        assert explored_stale
        for node in net.nodes():
            assert net.router(node).best_route(PFX) is None

    def test_withdrawal_slower_than_announcement(self):
        """The Appendix A vs B asymmetry on a fixed topology."""
        ratios = []
        for seed in range(3):
            net = rich_core(seed=seed)
            t0 = net.now
            net.announce("origin", PFX)
            announce_time = net.converge() - t0
            t1 = net.now
            net.withdraw("origin", PFX)
            withdraw_time = net.converge() - t1
            ratios.append(withdraw_time / max(announce_time, 1e-9))
        assert sum(ratios) / len(ratios) > 1.2

    def test_anycast_withdrawal_converges_faster_than_unicast(self):
        """§2: valid alternates pre-positioned by anycast let routers
        reconverge without full path hunting."""
        unicast_times, anycast_times = [], []
        for seed in range(3):
            net = rich_core(seed=seed)
            net.announce("origin", PFX)
            net.converge()
            t0 = net.now
            net.withdraw("origin", PFX)
            unicast_times.append(net.converge() - t0)

            net = rich_core(seed=seed)
            net.announce("origin", PFX)
            net.announce("c-3-0", PFX)
            net.announce("c-4-1", PFX)
            net.converge()
            t0 = net.now
            net.withdraw("origin", PFX)
            anycast_times.append(net.converge() - t0)
        assert sum(anycast_times) < sum(unicast_times)


class TestSuperprefixWindow:
    def test_invalid_specific_beats_valid_covering(self):
        """§3's mechanism, frozen mid-convergence: a router whose FIB
        still holds the withdrawn /24 sends packets toward the dead
        site even though a valid /23 exists."""
        net = rich_core()
        net.announce("origin", PFX)
        net.announce("c-4-0", SUPER)
        net.converge()
        far = "c-2-0"
        assert net.router(far).fib.lookup(ADDR)[0] == PFX
        net.withdraw("origin", PFX)
        # Step a handful of events: the withdrawal cannot have crossed
        # the whole core yet.
        for _ in range(3):
            net.engine.step()
        match = net.router(far).fib.lookup(ADDR)
        assert match is not None and match[0] == PFX, "stale /24 still wins LPM"
        net.converge()
        assert net.router(far).fib.lookup(ADDR)[0] == SUPER

    def test_superprefix_failover_bounded_by_specific_convergence(self):
        """Once the /24 is fully withdrawn everywhere, every router
        falls back to the /23 -- nothing is blackholed at steady state."""
        net = rich_core()
        net.announce("origin", PFX)
        for backup in ("c-3-0", "c-4-1"):
            net.announce(backup, SUPER)
        net.converge()
        net.withdraw("origin", PFX)
        net.converge()
        for node in net.nodes():
            match = net.router(node).fib.lookup(ADDR)
            assert match is not None, node
            assert match[0] == SUPER, node


class TestReactiveReconvergence:
    def test_new_announcements_replace_invalid_paths(self):
        """reactive-anycast's mechanism: announcing the /24 from other
        nodes after the withdrawal gives routers valid replacements."""
        net = rich_core()
        net.announce("origin", PFX)
        net.converge()
        net.withdraw("origin", PFX)
        for backup in ("c-3-0", "c-4-1"):
            net.announce(backup, PFX)
        net.converge()
        for node in net.nodes():
            if node in ("c-3-0", "c-4-1"):
                continue
            route = net.router(node).best_route(PFX)
            assert route is not None, node
            assert route.origin_node in ("c-3-0", "c-4-1"), node
