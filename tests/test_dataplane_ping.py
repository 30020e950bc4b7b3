"""Tests for the Verfploeter-style prober and site capture."""

import pytest

from repro.dataplane.capture import SiteCapture
from repro.dataplane.forwarding import DROP_LOG_LIMIT, ForwardingPlane
from repro.dataplane.ping import Prober
from repro.topology.generator import generate_topology
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, build_deployment

from tests.conftest import FAST_TIMING, SMALL_PARAMS
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
    capture = SiteCapture()
    prober = Prober(plane, deployment, capture, PROBE_SOURCE, vantage)
    targets = {
        info.prefix.address(1): info.node_id
        for info in deployment.topology.web_client_ases()[:n_targets]
    }
    return net, prober, capture, targets


class TestProbing:
    def test_replies_captured_at_announcing_site(self, small_deployment):
        net, prober, capture, targets = start_probing(small_deployment, ["west"])
        for addr, node in targets.items():
            prober.probe_once(addr, node)
        net.converge()
        assert len(capture) == len(targets)
        assert capture.sites_seen() == {"west"}

    def test_sequence_numbers_unique_and_logged(self, small_deployment):
        net, prober, capture, targets = start_probing(small_deployment, ["west"])
        for _ in range(3):
            for addr, node in targets.items():
                prober.probe_once(addr, node)
        net.converge()
        seqs = [e.seq for e in capture.entries]
        assert len(seqs) == len(set(seqs))
        sent = [p.seq for log in prober.logs.values() for p in log.sent]
        assert set(seqs) <= set(sent)

    def test_no_announcement_means_lost_replies(self, small_deployment):
        net, prober, capture, targets = start_probing(small_deployment, [])
        for addr, node in targets.items():
            prober.probe_once(addr, node)
        net.converge()
        assert len(capture) == 0
        assert len(prober.lost_replies) == len(targets)

    def test_dead_site_loses_replies(self, small_deployment):
        net, prober, capture, targets = start_probing(small_deployment, ["west"])
        prober.dead_sites.add("west")
        for addr, node in targets.items():
            prober.probe_once(addr, node)
        net.converge()
        assert len(capture) == 0
        assert prober.lost_replies

    def test_lost_reply_log_is_bounded_but_the_count_is_not(self, small_deployment):
        net, prober, capture, targets = start_probing(small_deployment, [])
        (addr, node), *_ = targets.items()
        for _ in range(DROP_LOG_LIMIT + 5):
            prober.probe_once(addr, node)
        net.converge()
        assert len(prober.lost_replies) == DROP_LOG_LIMIT
        assert prober.lost_total == prober.plane.dropped_total == DROP_LOG_LIMIT + 5

    def test_start_paces_probes(self, small_deployment):
        net, prober, capture, targets = start_probing(small_deployment, ["west"])
        one = dict(list(targets.items())[:1])
        prober.start(one, interval=1.5, duration=9.0)
        net.run_for(15.0)
        log = prober.logs[next(iter(one))]
        # ~7 probes in 9 s at 1.5 s cadence (first at t=0).
        assert 6 <= len(log.sent) <= 8
        gaps = [b.sent_at - a.sent_at for a, b in zip(log.sent, log.sent[1:])]
        assert all(abs(g - 1.5) < 1e-6 for g in gaps)

    def test_capture_for_target_filters(self, small_deployment):
        net, prober, capture, targets = start_probing(small_deployment, ["west"])
        for addr, node in targets.items():
            prober.probe_once(addr, node)
        net.converge()
        addr = next(iter(targets))
        entries = capture.for_target(addr)
        assert entries
        assert all(e.target == addr for e in entries)

    def test_capture_clear(self, small_deployment):
        net, prober, capture, targets = start_probing(small_deployment, ["west"])
        for addr, node in targets.items():
            prober.probe_once(addr, node)
        net.converge()
        capture.clear()
        assert len(capture) == 0
