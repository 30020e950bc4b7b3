"""Tests for the fault injector and session-reset semantics."""

import random

import pytest

from repro.bgp.engine import EventEngine
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.session import Session, SessionTiming
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FibDelay,
    LinkFlap,
    MessageLoss,
    PartialSiteFailure,
    SessionReset,
)
from repro.net.addr import IPv4Prefix

from tests.conftest import FAST_TIMING, build_line_network, heard

PFX = IPv4Prefix.parse("184.164.244.0/24")


def converged_line(n: int = 4) -> BgpNetwork:
    net = build_line_network(n)
    net.announce("r0", PFX)
    net.converge()
    return net


def arm(net: BgpNetwork, *faults, seed: int = 0) -> FaultInjector:
    injector = FaultInjector(net, FaultPlan(faults=tuple(faults), seed=seed))
    injector.arm()
    return injector


class TestLinkFlap:
    def test_flap_loses_then_restores_route(self):
        net = converged_line()
        injector = arm(net, LinkFlap(at=1.0, a="r1", b="r2", down_for=5.0))
        net.run_for(2.0)
        assert net.router("r3").best_route(PFX) is None
        net.converge()
        assert net.router("r3").best_route(PFX) is not None
        assert injector.injected == 2  # down + up
        assert injector.skipped == 0

    def test_repeat_schedules_every_occurrence(self):
        net = converged_line()
        injector = arm(
            net, LinkFlap(at=1.0, a="r1", b="r2", down_for=2.0, repeat=3, period=10.0)
        )
        net.converge()
        assert injector.injected == 6
        assert net.router("r3").best_route(PFX) is not None

    def test_flap_of_already_failed_link_is_skipped(self):
        net = converged_line()
        net.fail_link("r1", "r2")
        injector = arm(net, LinkFlap(at=1.0, a="r1", b="r2", down_for=2.0))
        net.run_for(2.0)
        assert injector.skipped == 1  # down skipped: link already gone
        net.converge()
        # The up phase finds the externally-failed link and restores it.
        assert injector.injected == 1

    def test_arm_twice_rejected(self):
        net = converged_line()
        injector = arm(net, LinkFlap(at=1.0, a="r1", b="r2", down_for=2.0))
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()


class TestSessionReset:
    def test_reset_clears_and_resyncs_transfer_state(self):
        net = converged_line()
        session = net.router("r1").sessions["r2"]
        assert PFX in session.advertised
        epoch_before = session.epoch
        rib_r2 = net.router("r2").adj_rib_in

        net.reset_session("r1", "r2")
        # Down/up happened atomically: the epoch advanced, the flushed
        # Adj-RIB-In is empty, and the re-advertisement is in flight.
        assert session.epoch == epoch_before + 1
        assert PFX not in rib_r2

        net.converge()
        assert PFX in session.advertised
        assert "r1" in rib_r2[PFX]
        assert net.router("r3").best_route(PFX) is not None

    def test_reset_on_missing_link_skipped(self):
        net = converged_line()
        injector = arm(net, SessionReset(at=1.0, a="r0", b="r9"))
        net.converge()
        assert injector.skipped == 1
        assert injector.injected == 0

    def test_in_flight_messages_die_with_their_epoch(self):
        """A reopened session must not deliver the previous epoch's mail."""
        engine = EventEngine()
        delivered = []
        session = Session(
            engine, random.Random(0), "a", "b", Relationship.PEER,
            delivered.append, SessionTiming(latency=1.0, jitter=0.0, mrai=0.0),
        )
        session.send(PFX, heard("a", PFX, (1,)), 0)
        assert session.sent_updates == 1
        session.reopen()  # reset while the update is still in flight
        engine.run_until_idle()
        assert delivered == []
        assert session.advertised == set()

    def test_reopen_resets_mrai_and_pending(self):
        engine = EventEngine()
        session = Session(
            engine, random.Random(0), "a", "b", Relationship.PEER,
            lambda update: None, SessionTiming(latency=0.01, jitter=0.0, mrai=30.0),
        )
        session.send(PFX, heard("a", PFX, (1,)), 0)
        # First update flushed immediately; MRAI timer now runs.
        assert session._mrai_running
        session.send(PFX, heard("a", PFX, (1, 1)), 0)
        assert session._pending
        session.reopen()
        assert not session._mrai_running
        assert not session._pending
        assert session._last_delivery == 0.0


class TestMessageLoss:
    def test_total_loss_blocks_propagation(self):
        net = build_line_network(3)
        arm(net, MessageLoss(at=0.0, a="r1", b="r2", duration=50.0, loss_prob=1.0))
        net.run_for(1.0)
        net.announce("r0", PFX)
        net.run_for(10.0)
        assert net.router("r1").best_route(PFX) is not None
        assert net.router("r2").best_route(PFX) is None

    def test_loss_window_ends(self):
        net = build_line_network(3)
        arm(net, MessageLoss(at=0.0, a="r1", b="r2", duration=5.0, loss_prob=1.0))
        net.converge()
        assert net.routers["r1"].sessions["r2"].loss_prob == 0.0
        net.announce("r0", PFX)
        net.converge()
        assert net.router("r2").best_route(PFX) is not None

    def test_loss_survives_link_flap(self):
        """A loss window spanning a link flap applies to the rebuilt
        sessions too (the per-link setting is remembered)."""
        net = converged_line(3)
        net.set_message_loss("r1", "r2", loss_prob=1.0)
        net.fail_link("r1", "r2")
        net.restore_link("r1", "r2")
        assert net.routers["r1"].sessions["r2"].loss_prob == 1.0
        assert net.routers["r2"].sessions["r1"].loss_prob == 1.0

    def test_partial_loss_is_deterministic(self):
        def run() -> list[int]:
            net = build_line_network(4, seed=3)
            arm(net, MessageLoss(at=0.0, a="r1", b="r2", duration=60.0,
                                 loss_prob=0.4, dup_prob=0.2))
            net.run_for(1.0)
            net.announce("r0", PFX)
            net.withdraw("r0", PFX)
            net.announce("r0", PFX)
            net.converge()
            return [r.sessions[n].sent_updates
                    for r in net.routers.values() for n in sorted(r.sessions)]

        assert run() == run()


class TestFibDelay:
    def test_window_slows_then_restores_installs(self):
        net = build_line_network(2)
        assert net.router("r1").fib_delay_source is None
        injector = arm(net, FibDelay(at=0.0, node="r1", duration=30.0, extra_delay=5.0))
        net.run_for(1.0)
        net.announce("r0", PFX)
        net.run_for(1.0)
        r1 = net.router("r1")
        # Best path selected, but the FIB download is still in flight.
        assert r1.best_route(PFX) is not None
        assert r1.fib.get(PFX) is None
        net.run_for(6.0)
        assert r1.fib.get(PFX) == "r0"
        net.converge()
        assert r1.fib_delay_source is None  # window ended, wrapper popped
        assert injector.injected == 2

    def test_unknown_node_skipped(self):
        net = build_line_network(2)
        injector = arm(net, FibDelay(at=0.0, node="r9", duration=5.0, extra_delay=1.0))
        net.converge()
        assert injector.skipped == 2  # start and end both skip


class TestPartialSiteFailure:
    def star_network(self) -> BgpNetwork:
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        net.add_router("hub", 100)
        for i in range(4):
            net.add_router(f"p{i}", 200 + i)
            net.add_provider("hub", f"p{i}")
        return net

    def test_fails_fraction_then_restores(self):
        net = self.star_network()
        injector = arm(net, PartialSiteFailure(at=1.0, node="hub",
                                               fraction=0.5, down_for=5.0))
        net.run_for(2.0)
        assert len(net.adjacency["hub"]) == 2
        net.converge()
        assert len(net.adjacency["hub"]) == 4
        assert injector.injected == 2

    def test_choice_is_seed_stable(self):
        def failed_set(seed: int) -> frozenset:
            net = self.star_network()
            arm(net, PartialSiteFailure(at=1.0, node="hub", fraction=0.5,
                                        down_for=50.0), seed=seed)
            net.run_for(2.0)
            return frozenset(net.adjacency["hub"])

        assert failed_set(7) == failed_set(7)

    def test_single_homed_partial_is_total(self):
        net = build_line_network(2)
        net.announce("r0", PFX)
        net.converge()
        arm(net, PartialSiteFailure(at=1.0, node="r1", fraction=0.3, down_for=5.0))
        net.run_for(2.0)
        assert net.adjacency["r1"] == {}
        net.converge()
        assert "r0" in net.adjacency["r1"]

    def test_isolated_node_skipped(self):
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        net.add_router("lonely", 100)
        injector = arm(net, PartialSiteFailure(at=1.0, node="lonely",
                                               fraction=0.5, down_for=5.0))
        net.converge()
        assert injector.skipped == 2


class TestDeterminismGuarantee:
    def test_empty_plan_perturbs_nothing(self):
        """Arming an empty plan must not change the random sequence."""

        def run(with_plan: bool) -> list[float]:
            net = build_line_network(
                4, seed=11, timing=SessionTiming(latency=0.05, jitter=1.0, mrai=2.0)
            )
            if with_plan:
                arm(net, seed=99)
            net.announce("r0", PFX)
            net.converge()
            return [net.rng.random() for _ in range(5)]

        assert run(True) == run(False)
