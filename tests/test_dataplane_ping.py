"""Tests for the Verfploeter-style prober and its probe records."""

import pytest

from repro import telemetry
from repro.dataplane.forwarding import ForwardingPlane
from repro.dataplane.ping import Prober
from repro.topology.generator import generate_topology
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, build_deployment

from tests.conftest import FAST_TIMING, SMALL_PARAMS, counter_values
from repro.topology.testbed import SiteSpec


@pytest.fixture(scope="module")
def small_deployment():
    topo = generate_topology(SMALL_PARAMS)
    specs = [
        SiteSpec(name="west", region="us-west", providers=("tr-us-west-0",)),
        SiteSpec(name="east", region="us-east", providers=("tr-us-east-0",)),
    ]
    return build_deployment(topology=topo, specs=specs)


def start_probing(deployment, announce_sites, vantage="east", n_targets=3):
    net = deployment.topology.build_network(seed=1, timing=FAST_TIMING)
    for site in announce_sites:
        net.announce(deployment.site_node(site), SPECIFIC_PREFIX)
    net.converge()
    plane = ForwardingPlane(net, deployment.topology)
    prober = Prober(plane, deployment, PROBE_SOURCE, vantage)
    targets = {
        info.prefix.address(1): info.node_id
        for info in deployment.topology.web_client_ases()[:n_targets]
    }
    return net, prober, targets


def records(prober):
    return [probe for log in prober.logs.values() for probe in log.probes]


class TestProbing:
    def test_replies_captured_at_announcing_site(self, small_deployment):
        net, prober, targets = start_probing(small_deployment, ["west"])
        for addr, node in targets.items():
            prober.probe_once(addr, node)
        net.converge()
        assert len(records(prober)) == len(targets)
        assert {probe.site for probe in records(prober)} == {"west"}
        for log in prober.logs.values():
            (probe,) = log.probes
            assert probe.reason is None
            assert probe.reply_at > probe.sent_at + log.request_latency

    def test_sequence_numbers_unique_and_logged(self, small_deployment):
        net, prober, targets = start_probing(small_deployment, ["west"])
        for _ in range(3):
            for addr, node in targets.items():
                prober.probe_once(addr, node)
        net.converge()
        seqs = [probe.seq for probe in records(prober)]
        assert sorted(seqs) == list(range(1, 3 * len(targets) + 1))
        for log in prober.logs.values():  # send order is seq order
            assert [p.seq for p in log.probes] == sorted(p.seq for p in log.probes)

    def test_no_announcement_means_lost_replies(self, small_deployment):
        net, prober, targets = start_probing(small_deployment, [])
        for addr, node in targets.items():
            prober.probe_once(addr, node)
        net.converge()
        assert [(p.site, p.reply_at, p.reason) for p in records(prober)] == [
            (None, None, "no-route")
        ] * len(targets)

    def test_dead_site_loses_replies(self, small_deployment):
        net, prober, targets = start_probing(small_deployment, ["west"])
        prober.dead_sites.add("west")
        for addr, node in targets.items():
            prober.probe_once(addr, node)
        net.converge()
        assert [(p.site, p.reason) for p in records(prober)] == [
            (None, "dead-site")
        ] * len(targets)

    def test_every_lost_reply_says_why_and_is_counted(self, small_deployment):
        """A lost probe says why in its own record, and the plane's
        ``dataplane.drops`` counter counts every drop."""
        with telemetry.using(telemetry.Telemetry()) as active:
            net, prober, targets = start_probing(small_deployment, [])
            (addr, node), *_ = targets.items()
            for _ in range(1029):
                prober.probe_once(addr, node)
            net.converge()
        assert [p.reason for p in records(prober)] == ["no-route"] * 1029
        counters = counter_values(active)
        assert counters["dataplane.drops"] == counters["probe.replies_lost"] == 1029

    def test_start_paces_probes(self, small_deployment):
        net, prober, targets = start_probing(small_deployment, ["west"])
        one = dict(list(targets.items())[:1])
        prober.start(one, interval=1.5, duration=9.0)
        net.run_for(15.0)
        log = prober.logs[next(iter(one))]
        # ~7 probes in 9 s at 1.5 s cadence (first at t=0).
        assert 6 <= len(log.probes) <= 8
        gaps = [b.sent_at - a.sent_at for a, b in zip(log.probes, log.probes[1:])]
        assert all(abs(g - 1.5) < 1e-6 for g in gaps)

    def test_request_leg_is_solved_once_per_target(self, small_deployment, monkeypatch):
        """The request follows static policy routes, which cannot move
        during a run: its latency is the target's, not the probe's."""
        net, prober, targets = start_probing(small_deployment, ["west"], n_targets=1)
        calls = []
        solve = prober.plane.latency_to_client
        monkeypatch.setattr(
            prober.plane, "latency_to_client",
            lambda *args: calls.append(args) or solve(*args),
        )
        prober.start(targets, interval=1.5, duration=9.0)
        net.run_for(15.0)
        (log,) = prober.logs.values()
        assert len(log.probes) > 1 and len(calls) == 1
        assert log.request_latency == solve(*calls[0])

    def test_site_switch_is_traced_right_after_the_reply(self, small_deployment):
        """The switch bookkeeping lives where the reply is recorded:
        under telemetry only, one ``site_switched`` per change of
        receiving site, emitted straight after its ``probe_reply``."""
        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)) as active:
            net, prober, targets = start_probing(small_deployment, ["west"], n_targets=1)
            ((addr, node),) = targets.items()
            prober.probe_once(addr, node)
            net.converge()
            net.withdraw(small_deployment.site_node("west"), SPECIFIC_PREFIX)
            net.announce(small_deployment.site_node("east"), SPECIFIC_PREFIX)
            net.converge()
            prober.probe_once(addr, node)
            prober.probe_once(addr, node)
            net.converge()
        assert [p.site for p in prober.logs[addr].probes] == ["west", "east", "east"]
        assert counter_values(active)["probe.site_switches"] == 1
        kinds = [e.kind for e in tracer.events if e.kind.startswith(("probe_", "site_"))]
        switch = kinds.index("site_switched")
        assert kinds.count("site_switched") == 1 and kinds[switch - 1] == "probe_reply"
        switched = next(e for e in tracer.events if e.kind == "site_switched")
        assert (switched.target, switched.from_site, switched.to_site) == (
            str(addr), "west", "east",
        )
