"""Tests for convergence/propagation metrics and the event-time estimator."""


from repro.bgp.collector import CollectorEntry, RouteCollector
from repro.measurement.convergence import (
    estimate_event_time,
    propagation_times,
    withdrawal_convergence_times,
)
from repro.net.addr import IPv4Prefix

from tests.conftest import build_line_network

PFX = IPv4Prefix.parse("184.164.244.0/24")
OTHER = IPv4Prefix.parse("184.164.245.0/24")


def entry(time, peer="p1", announce=True, prefix=PFX):
    return CollectorEntry(
        time=time, peer=peer, peer_asn=1, announce=announce, prefix=prefix, as_path=(1,)
    )


class TestEstimator:
    def test_five_in_twenty_seconds(self):
        entries = [entry(100 + i, peer=f"p{i}", announce=False) for i in range(5)]
        assert estimate_event_time(entries, PFX, announce=False) == 100.0

    def test_spread_out_updates_not_an_event(self):
        entries = [entry(100 + 30 * i, peer=f"p{i}", announce=False) for i in range(5)]
        assert estimate_event_time(entries, PFX, announce=False) is None

    def test_kind_filter(self):
        entries = [entry(100 + i, peer=f"p{i}", announce=True) for i in range(5)]
        assert estimate_event_time(entries, PFX, announce=False) is None
        assert estimate_event_time(entries, PFX, announce=True) == 100.0

    def test_prefix_filter(self):
        entries = [entry(100 + i, peer=f"p{i}", prefix=OTHER) for i in range(5)]
        assert estimate_event_time(entries, PFX, announce=True) is None

    def test_finds_earliest_qualifying_burst(self):
        sparse = [entry(50, "a", announce=False)]
        burst = [entry(200 + i, peer=f"p{i}", announce=False) for i in range(5)]
        assert estimate_event_time(sparse + burst, PFX, announce=False) == 200.0

    def test_fewer_updates_than_the_threshold_is_no_event(self):
        entries = [entry(100 + i, peer=f"p{i}", announce=False) for i in range(4)]
        assert estimate_event_time(entries, PFX, announce=False) is None
        assert estimate_event_time([], PFX, announce=False) is None

    def test_a_burst_spanning_exactly_the_window_counts(self):
        entries = [entry(100 + 5 * i, peer=f"p{i}", announce=False) for i in range(5)]
        assert estimate_event_time(entries, PFX, announce=False) == 100.0
        wider = [entry(100 + 5.025 * i, peer=f"p{i}", announce=False) for i in range(5)]
        assert estimate_event_time(wider, PFX, announce=False) is None


class TestSyntheticConvergence:
    def test_last_update_per_peer(self):
        entries = [
            entry(101, "a", announce=True),
            entry(150, "a", announce=False),
            entry(110, "b", announce=False),
        ]
        collector = RouteCollector.__new__(RouteCollector)
        collector.entries = entries
        collector._peers = ["a", "b"]
        times = withdrawal_convergence_times(collector, PFX, event_time=100.0)
        assert times == {"a": 50.0, "b": 10.0}

    def test_peer_still_announcing_omitted(self):
        entries = [entry(150, "a", announce=True)]
        collector = RouteCollector.__new__(RouteCollector)
        collector.entries = entries
        collector._peers = ["a"]
        assert withdrawal_convergence_times(collector, PFX, 100.0) == {}

    def test_window_limits(self):
        entries = [
            entry(150, "a", announce=False),
            entry(5000, "a", announce=True),  # beyond window, ignored
        ]
        collector = RouteCollector.__new__(RouteCollector)
        collector.entries = entries
        collector._peers = ["a"]
        times = withdrawal_convergence_times(collector, PFX, 100.0)
        assert times == {"a": 50.0}

    def test_propagation_first_announcement(self):
        entries = [
            entry(103, "a", announce=True),
            entry(140, "a", announce=True),
            entry(108, "b", announce=True),
        ]
        collector = RouteCollector.__new__(RouteCollector)
        collector.entries = entries
        collector._peers = ["a", "b"]
        times = propagation_times(collector, PFX, event_time=100.0)
        assert times == {"a": 3.0, "b": 8.0}

    def test_propagation_counts_only_announcements_of_the_prefix_in_the_window(self):
        entries = [
            entry(99, "a", announce=True),  # before the event
            entry(104, "a", announce=True),
            entry(101, "b", announce=False),  # a withdrawal
            entry(102, "b", prefix=OTHER),  # another prefix
            entry(1200, "c", announce=True),  # beyond the window
        ]
        collector = RouteCollector.__new__(RouteCollector)
        collector.entries = entries
        assert propagation_times(collector, PFX, event_time=100.0) == {"a": 4.0}

    def test_withdrawal_convergence_ignores_other_prefixes(self):
        entries = [
            entry(120, "a", announce=False),
            entry(130, "a", announce=True, prefix=OTHER),  # not this prefix's last word
        ]
        collector = RouteCollector.__new__(RouteCollector)
        collector.entries = entries
        assert withdrawal_convergence_times(collector, PFX, 100.0) == {"a": 20.0}


class TestOnSimulatedFeed:
    def test_estimator_close_to_ground_truth(self):
        """The paper validates its estimator against its own PEERING
        withdrawals: estimated vs true time within ~10 s at median. The
        simulated feed must satisfy the same bound."""
        errors = []
        for seed in range(5):
            net = build_line_network(8, seed=seed)
            # widen: attach extra peers per router via a star of stubs
            coll = RouteCollector("ris", net)
            for i in range(1, 8):
                coll.attach(f"r{i}")
            net.announce("r0", PFX)
            net.converge()
            truth = net.now
            net.withdraw("r0", PFX)
            net.converge()
            estimate = estimate_event_time(coll.entries, PFX, announce=False)
            assert estimate is not None
            errors.append(abs(estimate - truth))
        errors.sort()
        assert errors[len(errors) // 2] < 10.0

    def test_convergence_times_nonnegative(self):
        net = build_line_network(6, seed=1)
        coll = RouteCollector("ris", net)
        for i in range(1, 6):
            coll.attach(f"r{i}")
        net.announce("r0", PFX)
        net.converge()
        t_wd = net.now
        net.withdraw("r0", PFX)
        net.converge()
        times = withdrawal_convergence_times(coll, PFX, t_wd)
        assert len(times) == 5
        assert all(t >= 0 for t in times.values())
