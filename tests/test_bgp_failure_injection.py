"""Tests for link/node failure injection in the BGP substrate."""

import pytest

from repro import telemetry
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.session import SessionTiming
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.telemetry.trace import BgpUpdateSent, RootCause

from tests.conftest import FAST_TIMING, build_line_network

PFX = IPv4Prefix.parse("184.164.244.0/24")
PFX2 = IPv4Prefix.parse("184.164.245.0/24")
ADDR = IPv4Address.parse("184.164.244.10")


def diamond() -> BgpNetwork:
    """origin with two providers (left, right), both customers of top."""
    net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
    for name, asn in (("origin", 1), ("left", 2), ("right", 3), ("top", 4)):
        net.add_router(name, asn)
    net.connect("origin", "left", Relationship.PROVIDER)
    net.connect("origin", "right", Relationship.PROVIDER)
    net.connect("left", "top", Relationship.PROVIDER)
    net.connect("right", "top", Relationship.PROVIDER)
    return net


class TestLinkFailure:
    def test_routes_over_failed_link_flushed(self):
        net = diamond()
        net.announce("origin", PFX)
        net.converge()
        best = net.router("top").best_route(PFX)
        primary = best.learned_from
        net.fail_link("origin", primary)
        net.converge()
        rerouted = net.router("top").best_route(PFX)
        assert rerouted is not None
        assert rerouted.learned_from != primary

    def test_all_paths_cut_removes_reachability(self):
        net = diamond()
        net.announce("origin", PFX)
        net.converge()
        net.fail_link("origin", "left")
        net.fail_link("origin", "right")
        net.converge()
        assert net.router("top").best_route(PFX) is None
        assert net.router("origin").best_route(PFX) is not None  # local

    def test_unknown_link_rejected(self):
        net = diamond()
        with pytest.raises(KeyError):
            net.fail_link("origin", "top")

    def test_adjacency_updated(self):
        net = diamond()
        net.fail_link("origin", "left")
        assert "left" not in net.neighbors("origin")
        assert "origin" not in net.neighbors("left")

    def test_in_flight_messages_lost(self):
        """An announcement in flight when the link fails never arrives."""
        net = build_line_network(2)
        net.announce("r0", PFX)  # delivery scheduled, not yet executed
        net.fail_link("r0", "r1")
        net.converge()
        assert net.router("r1").best_route(PFX) is None

    def test_restore_link_resynchronizes(self):
        net = diamond()
        net.announce("origin", PFX)
        net.converge()
        net.fail_link("origin", "left")
        net.converge()
        net.restore_link("origin", "left")
        net.converge()
        assert "origin" in net.router("left").adj_rib_in[PFX]
        # top should again prefer whichever tie-break chooses, but both
        # paths exist in its Adj-RIB-In.
        assert len(net.router("top").adj_rib_in[PFX]) == 2

    def test_restore_preserves_relationship(self):
        net = diamond()
        net.fail_link("origin", "left")
        net.restore_link("left", "origin")  # swapped argument order
        assert net.neighbors("origin")["left"] is Relationship.PROVIDER
        assert net.neighbors("left")["origin"] is Relationship.CUSTOMER

    def test_restore_unfailed_link_rejected(self):
        net = diamond()
        with pytest.raises(KeyError):
            net.restore_link("origin", "left")

    def test_refail_after_restore(self):
        net = diamond()
        net.fail_link("origin", "left")
        net.restore_link("origin", "left")
        net.fail_link("origin", "left")
        assert "left" not in net.neighbors("origin")


class TestNodeFailure:
    def test_fail_node_cuts_all_links(self):
        net = diamond()
        net.announce("origin", PFX)
        net.converge()
        gone = net.fail_node("origin")
        assert set(gone) == {"left", "right"}
        net.converge()
        for node in ("left", "right", "top"):
            assert net.router(node).best_route(PFX) is None

    def test_failed_node_keeps_local_state(self):
        net = diamond()
        net.announce("origin", PFX)
        net.converge()
        net.fail_node("origin")
        net.converge()
        assert net.router("origin").best_route(PFX) is not None
        assert net.neighbors("origin") == {}

    def test_transit_node_failure_reroutes(self):
        net = diamond()
        net.announce("origin", PFX)
        net.converge()
        net.fail_node("left")
        net.converge()
        route = net.router("top").best_route(PFX)
        assert route is not None
        assert route.learned_from == "right"


class TestSessionTeardownSemantics:
    def test_closed_session_sends_nothing(self):
        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)):
            net = build_line_network(3)
        net.announce("r0", PFX)
        net.converge()
        net.router("r1").sessions["r2"].closed = True
        tracer.events.clear()
        net.withdraw("r0", PFX)
        net.converge()
        sent = {(e.sender, e.receiver) for e in tracer.events_of(BgpUpdateSent)}
        assert ("r0", "r1") in sent and ("r1", "r2") not in sent
        assert net.router("r2").best_route(PFX) is not None  # the withdrawal never came

    def test_remove_unknown_session_rejected(self):
        net = build_line_network(2)
        with pytest.raises(KeyError):
            net.router("r0").remove_session("ghost")


class TestNodeFailureProvenance:
    def test_fail_node_forms_one_causal_chain(self):
        """Regression: ``fail_node`` used to allocate one root cause per
        adjacency, fragmenting a single crash into N unrelated chains.
        All link teardowns and their downstream updates must share one
        ``node-down`` root."""
        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)):
            net = diamond()
            net.announce("origin", PFX)
            net.converge()
            net.fail_node("origin")
            net.converge()
        roots = [e for e in tracer.events if isinstance(e, RootCause)]
        node_down = [e for e in roots if e.action == "node-down"]
        assert len(node_down) == 1
        assert node_down[0].target == "origin"
        # No per-link chains: the teardowns all inherit the node root.
        assert not any(e.action == "link-down" for e in roots)
        # Every update the crash triggered descends from that one root.
        updates = [
            e for e in tracer.events
            if isinstance(e, BgpUpdateSent) and e.t >= node_down[0].t
        ]
        assert updates
        assert {e.cause for e in updates} == {node_down[0].cause}

    def test_fail_isolated_node_allocates_no_cause(self):
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        net.add_router("lone", 1)
        before = net._next_cause
        assert net.fail_node("lone") == []
        assert net._next_cause == before


class TestStaleMraiTimerAcrossReset:
    def test_reset_session_leaves_old_timer_inert(self):
        """Network-level regression for the MRAI epoch guard: a timer
        armed before ``reset_session`` must not flush the reopened
        session's pending updates when it fires (seed chosen so the
        stale timer expires well before the legitimate one)."""
        timing = SessionTiming(latency=0.05, jitter=0.0, mrai=10.0, busy_prob=0.0)
        active = telemetry.Telemetry()
        with telemetry.using(active):
            net = BgpNetwork(seed=9, default_timing=timing)
            net.add_router("a", 1)
            net.add_router("b", 2)
            net.connect("a", "b", Relationship.PEER)
        sent = active.counter("bgp.updates_sent")

        def mrai_timers():
            return sorted(
                when for (when, _, cb) in net.engine._queue
                if "mrai" in getattr(cb, "__name__", "")
            )

        net.announce("a", PFX)              # flushed; timer runs
        net.announce("a", PFX, prepend=1)   # waits: the timer's expiry is queued
        (stale,) = mrai_timers()
        net.reset_session("a", "b")         # resync flushes; new timer runs
        net.announce("a", PFX2)             # pending: the new timer's expiry is queued
        fresh = [t for t in mrai_timers() if t != stale]
        assert len(fresh) == 1
        assert stale < fresh[0] - 0.5, "seed no longer orders the timers; pick another"
        session = net.router("a").sessions["b"]
        assert session._pending
        sent_before = sent.value
        net.engine.run_until(stale + 0.1)   # stale timer fires here
        assert sent.value == sent_before
        assert session._pending and session._mrai_running
        assert net.router("b").best_route(PFX2) is None
        net.converge()
        assert net.router("b").best_route(PFX2) is not None
