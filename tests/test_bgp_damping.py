"""Tests for route flap damping (RFC 2439)."""

import pytest

from repro.bgp.damping import DampingConfig, RouteDamping
from repro.bgp.engine import EventEngine
from repro.bgp.network import BgpNetwork
from repro.net.addr import IPv4Prefix

from tests.conftest import FAST_TIMING

PFX = IPv4Prefix.parse("184.164.244.0/24")

#: Aggressive config so tests trigger suppression with few flaps and
#: short sim times.
FAST_DAMPING = DampingConfig(
    penalty_per_flap=1000.0,
    suppress_threshold=1500.0,
    reuse_threshold=750.0,
    half_life=30.0,
    max_penalty=4000.0,
)


class TestDampingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DampingConfig(half_life=0.0)
        with pytest.raises(ValueError):
            DampingConfig(reuse_threshold=3000.0, suppress_threshold=2000.0)
        with pytest.raises(ValueError):
            DampingConfig(penalty_per_flap=0.0)


class TestRouteDampingUnit:
    def make(self):
        engine = EventEngine()
        released = []
        damping = RouteDamping(engine, FAST_DAMPING, on_release=released.append)
        return engine, damping, released

    def test_single_flap_not_suppressed(self):
        engine, damping, _ = self.make()
        damping.record_flap(PFX, "n1")
        assert not damping.is_suppressed(PFX, "n1")
        assert damping.penalty(PFX, "n1") == pytest.approx(1000.0)

    def test_second_flap_suppresses(self):
        engine, damping, _ = self.make()
        damping.record_flap(PFX, "n1")
        damping.record_flap(PFX, "n1")
        assert damping.is_suppressed(PFX, "n1")
        assert damping.suppressions == 1

    def test_penalty_decays(self):
        engine, damping, _ = self.make()
        damping.record_flap(PFX, "n1")
        engine.schedule(30.0, lambda: None)
        engine.run_until_idle()
        assert damping.penalty(PFX, "n1") == pytest.approx(500.0, rel=0.01)

    def test_release_fires_after_decay(self):
        engine, damping, released = self.make()
        damping.record_flap(PFX, "n1")
        damping.record_flap(PFX, "n1")
        assert damping.is_suppressed(PFX, "n1")
        engine.run_until_idle()
        assert not damping.is_suppressed(PFX, "n1")
        assert released == [PFX]
        # penalty 2000 -> reuse 750 takes half_life*log2(2000/750) ~= 42s
        assert 40.0 < engine.now < 50.0

    def test_penalty_capped(self):
        engine, damping, _ = self.make()
        for _ in range(10):
            damping.record_flap(PFX, "n1")
        assert damping.penalty(PFX, "n1") <= FAST_DAMPING.max_penalty

    def test_per_neighbor_isolation(self):
        engine, damping, _ = self.make()
        damping.record_flap(PFX, "n1")
        damping.record_flap(PFX, "n1")
        assert damping.suppressed_neighbors(PFX) == {"n1"}
        assert not damping.is_suppressed(PFX, "n2")

    def test_flaps_counted(self):
        engine, damping, _ = self.make()
        damping.record_flap(PFX, "n1")
        damping.record_flap(PFX, "n2")
        assert damping.flaps == 2

    def test_pending_events_bounded_under_sustained_flapping(self):
        """Sustained flapping must not accumulate release callbacks:
        at most one release event per suppressed (prefix, neighbor) is
        outstanding, however many flaps arrive."""
        engine, damping, _ = self.make()
        for _ in range(200):
            damping.record_flap(PFX, "n1")
        assert damping.is_suppressed(PFX, "n1")
        assert engine.pending <= 1

    def test_stale_release_is_inert_across_cycles(self):
        """Flapping across suppress/release cycles: stale callbacks from
        earlier generations return without touching newer state, the
        event count stays bounded, and the final release still fires."""
        engine, damping, released = self.make()
        for _ in range(6):
            damping.record_flap(PFX, "n1")
            damping.record_flap(PFX, "n1")
            assert damping.is_suppressed(PFX, "n1")
            assert engine.pending <= 1
            engine.run_until_idle()  # decay out; release fires
            assert not damping.is_suppressed(PFX, "n1")
        assert len(released) == 6

    def test_release_timed_from_decayed_penalty(self):
        """A release scheduled long after the last flap must measure the
        decay from the *current* penalty, not the stored one."""
        engine, damping, released = self.make()
        damping.record_flap(PFX, "n1")
        damping.record_flap(PFX, "n1")
        engine.run_until_idle()
        assert released == [PFX]
        # Suppress again on top of the residual 750: two flaps reach
        # 2750, which decays to the 750 reuse level in
        # 30 * log2(2750/750) ~= 56 s. The reschedule inside
        # _maybe_release must measure from the *decayed* penalty;
        # measuring from the stored one overshoots to ~90 s.
        start = engine.now
        damping.record_flap(PFX, "n1")
        damping.record_flap(PFX, "n1")
        engine.run_until_idle()
        assert len(released) == 2
        assert 54.0 < engine.now - start < 62.0


class TestDampingInNetwork:
    def flapping_network(self) -> BgpNetwork:
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING, damping=FAST_DAMPING)
        net.add_router("origin", 1)
        net.add_router("mid", 2)
        net.add_router("edge", 3)
        net.add_provider("origin", "mid")
        net.add_provider("edge", "mid")
        return net

    def test_initial_announcement_is_not_a_flap(self):
        net = self.flapping_network()
        net.announce("origin", PFX)
        net.converge()
        assert net.router("mid").damping.flaps == 0
        assert net.router("edge").best_route(PFX) is not None

    def flap_quickly(self, net, rounds=3):
        """Announce/withdraw in rapid succession, keeping sim time short
        so release timers don't drain between flaps."""
        for _ in range(rounds):
            net.announce("origin", PFX)
            net.run_for(0.5)
            net.withdraw("origin", PFX)
            net.run_for(0.5)

    def test_flapping_origin_gets_suppressed(self):
        net = self.flapping_network()
        self.flap_quickly(net)
        mid = net.router("mid")
        assert mid.damping.flaps >= 3
        assert mid.damping.suppressions >= 1
        # Re-announce: the suppressed route is ignored by the decision
        # process even though it sits in the Adj-RIB-In.
        net.announce("origin", PFX)
        net.run_for(1.0)
        assert "origin" in mid.adj_rib_in[PFX]
        assert mid.best_route(PFX) is None

    def test_suppressed_route_released_after_decay(self):
        net = self.flapping_network()
        self.flap_quickly(net)
        net.announce("origin", PFX)
        net.converge()  # runs the release timers dry
        assert net.router("mid").best_route(PFX) is not None
        assert net.router("edge").best_route(PFX) is not None

    def test_stable_prefix_unaffected(self):
        """Damping must be invisible for well-behaved announcements."""
        net = self.flapping_network()
        net.announce("origin", PFX)
        net.converge()
        net.run_for(100.0)
        assert net.router("edge").best_route(PFX) is not None
        assert net.router("mid").damping.suppressions == 0

    def test_topology_build_network_passthrough(self, small_topology):
        network = small_topology.build_network(
            seed=1, timing=FAST_TIMING, damping=FAST_DAMPING
        )
        some_router = network.router(network.nodes()[0])
        assert some_router.damping is not None


class TestSuppressedIndexEquivalence:
    """The per-prefix ``_suppressed`` index is an optimization of what
    used to be a scan over all flap state; it must agree with the
    brute-force definition at every point of a random flap/decay
    schedule."""

    def brute_force(self, damping: RouteDamping, prefix: IPv4Prefix) -> set:
        return {
            neighbor
            for (pfx, neighbor), state in damping._state.items()
            if pfx == prefix and state.suppressed
        }

    def test_index_matches_brute_force_scan(self):
        import random

        engine = EventEngine()
        damping = RouteDamping(engine, FAST_DAMPING, on_release=lambda p: None)
        rng = random.Random(1234)
        prefixes = [IPv4Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]
        neighbors = ["n1", "n2", "n3"]
        for _ in range(400):
            if rng.random() < 0.7:
                damping.record_flap(rng.choice(prefixes), rng.choice(neighbors))
            else:
                # Let decay and release timers run.
                engine.run_until(engine.now + rng.uniform(0.0, 25.0))
            for prefix in prefixes:
                assert damping.suppressed_neighbors(prefix) == self.brute_force(
                    damping, prefix
                )
        # Drain: every suppression eventually releases and the index
        # empties with the state.
        engine.run_until_idle()
        for prefix in prefixes:
            assert damping.suppressed_neighbors(prefix) == set()
        assert damping._suppressed == {}

    def test_index_isolated_per_prefix(self):
        engine = EventEngine()
        damping = RouteDamping(engine, FAST_DAMPING, on_release=lambda p: None)
        other = IPv4Prefix.parse("184.164.245.0/24")
        for _ in range(2):
            damping.record_flap(PFX, "n1")
            damping.record_flap(other, "n2")
        assert damping.suppressed_neighbors(PFX) == {"n1"}
        assert damping.suppressed_neighbors(other) == {"n2"}
        # Returned sets are copies: mutating one must not corrupt the index.
        damping.suppressed_neighbors(PFX).add("intruder")
        assert damping.suppressed_neighbors(PFX) == {"n1"}
