"""Assorted edge cases pinned down late in development."""


from repro.bgp.engine import EventEngine
from repro.bgp.network import BgpNetwork
from repro.net.addr import IPv4Prefix
from repro.topology.testbed import PROBE_SOURCE

from tests.conftest import FAST_TIMING, build_line_network

PFX = IPv4Prefix.parse("184.164.244.0/24")


class TestIdempotentOrigination:
    def test_reannouncing_same_config_sends_nothing(self):
        """originate() with an unchanged config must not generate churn
        (the controller re-applies its whole target plan on every reaction)."""
        net = build_line_network(3)
        net.announce("r0", PFX, prepend=2)
        net.converge()
        session = net.router("r0").sessions["r1"]
        before = session.sent_updates
        net.announce("r0", PFX, prepend=2)
        net.converge()
        assert session.sent_updates == before

    def test_changing_prepend_reexports(self):
        net = build_line_network(3)
        net.announce("r0", PFX)
        net.converge()
        assert net.router("r2").best_route(PFX).as_path == (101, 100)
        net.announce("r0", PFX, prepend=3)
        net.converge()
        assert net.router("r2").best_route(PFX).as_path == (101, 100, 100, 100, 100)

    def test_changing_med_reexports(self):
        net = build_line_network(2)
        net.announce("r0", PFX, med=0)
        net.converge()
        assert net.router("r1").best_route(PFX).med == 0
        net.announce("r0", PFX, med=50)
        net.converge()
        assert net.router("r1").best_route(PFX).med == 50

    def test_narrowing_neighbor_scope_withdraws(self):
        """Re-originating with a smaller neighbor set must withdraw the
        route from the newly-excluded neighbors."""
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        net.add_router("origin", 1)
        net.add_router("a", 2)
        net.add_router("b", 3)
        net.add_provider("origin", "a")
        net.add_provider("origin", "b")
        net.announce("origin", PFX)
        net.converge()
        assert net.router("b").best_route(PFX) is not None
        net.announce("origin", PFX, neighbors=frozenset({"a"}))
        net.converge()
        assert net.router("a").best_route(PFX) is not None
        assert net.router("b").best_route(PFX) is None


class TestEngineEdges:
    def test_schedule_at_now_is_allowed(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1.0, lambda: None)
        engine.run_until_idle()
        engine.schedule_at(engine.now, lambda: fired.append(True))
        engine.run_until_idle()
        assert fired == [True]

    def test_zero_delay_runs_after_current_event(self):
        engine = EventEngine()
        order = []

        def first():
            order.append("first")
            engine.schedule(0.0, lambda: order.append("nested"))

        engine.schedule(1.0, first)
        engine.schedule(1.0, lambda: order.append("second"))
        engine.run_until_idle()
        assert order == ["first", "second", "nested"]


class TestProberEdges:
    def test_unreachable_target_counts_as_sent_never_answered(self):
        """A target with no policy path from the vantage still gets its
        probe logged (so it shows up censored in the metrics): the
        record says why, nothing is scheduled, and the counters balance."""
        from repro import telemetry
        from repro.core.metrics import target_outcome
        from repro.dataplane.forwarding import ForwardingPlane
        from repro.dataplane.ping import Prober
        from repro.topology.geo import Location
        from repro.topology.relationships import AsClass, AsInfo
        from repro.topology.testbed import SPECIFIC_PREFIX, build_deployment

        deployment = build_deployment()  # private copy: it grows an island
        topology = deployment.topology
        ghost_prefix = IPv4Prefix.parse("10.250.0.0/24")
        topology.add_as(AsInfo(
            "island", 64999, AsClass.STUB, Location("us-west", 0, 0), prefix=ghost_prefix,
        ))
        ghost = ghost_prefix.address(1)
        reachable = topology.ases["eye-us-west-0"].prefix.address(1)
        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)) as active:
            network = topology.build_network(seed=33, timing=FAST_TIMING)
            network.announce(deployment.site_node("sea1"), SPECIFIC_PREFIX)
            network.converge()
            prober = Prober(ForwardingPlane(network, topology), deployment, PROBE_SOURCE, "ams")
            pending = network.engine.pending
            prober.probe_once(ghost, "island")
            assert network.engine.pending == pending  # no reply ever scheduled
            prober.probe_once(reachable, "eye-us-west-0")
            prober.probe_once(ghost, "island")
            network.converge()
        log = prober.logs[ghost]
        assert log.request_latency is None
        assert [(p.seq, p.site, p.reply_at, p.reason) for p in log.probes] == [
            (1, None, None, "unreachable"), (3, None, None, "unreachable"),
        ]
        assert prober.logs[reachable].probes[0].site == "sea1"
        outcome = target_outcome(log, "ams", 0.0)
        assert outcome.reconnection_s is None and not outcome.stabilized
        counters = active.snapshot()["counters"]
        unreachable = sum(
            1 for e in tracer.events if e.kind == "probe_lost" and e.reason == "unreachable"
        )
        assert unreachable == 2
        assert counters["probe.sent"] == 3 == (
            counters["probe.replies"] + counters.get("probe.replies_lost", 0) + unreachable
        )


class TestWithdrawDuringConvergence:
    def test_withdraw_before_announcement_finishes(self):
        """Withdrawing while the announcement is still propagating leaves
        no residue anywhere."""
        net = build_line_network(6, timing=FAST_TIMING)
        net.announce("r0", PFX)
        # Step just a few events: propagation is mid-flight.
        for _ in range(3):
            net.engine.step()
        net.withdraw("r0", PFX)
        net.converge()
        for node in net.nodes():
            assert net.router(node).best_route(PFX) is None, node
