"""Tests for the §5.4.1 reconnection/failover metrics on synthetic data."""

from hypothesis import given, strategies as st

import pytest

from repro.core.metrics import TargetOutcome, bounce_statistics, outcomes_for_run, target_outcome
from repro.dataplane.ping import Probe, ProbeLog
from repro.net.addr import IPv4Address

TARGET = IPv4Address.parse("10.0.0.1")
T_FAIL = 100.0


def scenario(statuses, interval=1.5, rtt=0.1):
    """Build a ProbeLog from a list of per-probe outcomes: each entry is
    a site name (reply arrives) or None (lost)."""
    log = ProbeLog(target=TARGET, target_node="eye", request_latency=rtt / 2)
    for i, status in enumerate(statuses):
        sent_at = T_FAIL + i * interval
        if status is None:
            log.probes.append(Probe(i + 1, sent_at, reason="no-route"))
        else:
            log.probes.append(Probe(i + 1, sent_at, reply_at=sent_at + rtt, site=status))
    return log


class TestReconnection:
    def test_immediate_reply(self):
        log = scenario(["ams", "ams", "ams"])
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.reconnection_s == pytest.approx(0.1)

    def test_reconnection_after_losses(self):
        log = scenario([None, None, "ams", "ams"])
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.reconnection_s == pytest.approx(3.1)

    def test_never_reconnects(self):
        log = scenario([None, None, None])
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.reconnection_s is None
        assert outcome.failover_s is None


class TestFailover:
    def test_stable_from_start(self):
        log = scenario(["ams", "ams", "ams"])
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.failover_s == outcome.reconnection_s
        assert outcome.final_site == "ams"

    def test_bounce_delays_failover(self):
        """§5.4.1: clients may bounce between sites after reconnecting;
        failover counts from the *last* change."""
        log = scenario(["ams", "bos", "ams", "ams"])
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.reconnection_s == pytest.approx(0.1)
        assert outcome.failover_s == pytest.approx(3.1)
        assert outcome.bounces == 2

    def test_disconnection_delays_failover(self):
        log = scenario(["ams", None, "ams", "ams"])
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.failover_s == pytest.approx(3.1)
        assert outcome.disconnections == 1

    def test_unstable_at_window_end_is_censored(self):
        log = scenario(["ams", "ams", "ams", None])
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.reconnection_s == pytest.approx(0.1)
        assert outcome.failover_s is None

    def test_final_switch_counts(self):
        log = scenario(["ams", "ams", "bos"])
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.final_site == "bos"
        assert outcome.failover_s == pytest.approx(3.1)

    def test_pre_failure_probes_ignored(self):
        log = scenario(["ams", "ams"])
        log.probes.insert(0, Probe(0, T_FAIL - 10))
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.reconnection_s == pytest.approx(0.1)

    def test_empty_log(self):
        log = ProbeLog(target=TARGET, target_node="eye", request_latency=0.05)
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert outcome.reconnection_s is None
        assert outcome.failover_s is None


class TestProperties:
    sites = st.one_of(st.none(), st.sampled_from(["ams", "bos", "slc"]))

    @given(st.lists(sites, min_size=1, max_size=30))
    def test_failover_never_before_reconnection(self, statuses):
        log = scenario(statuses)
        outcome = target_outcome(log, "sea1", T_FAIL)
        if outcome.failover_s is not None:
            assert outcome.reconnection_s is not None
            assert outcome.failover_s >= outcome.reconnection_s

    @given(st.lists(sites, min_size=1, max_size=30))
    def test_stabilized_iff_clean_suffix(self, statuses):
        log = scenario(statuses)
        outcome = target_outcome(log, "sea1", T_FAIL)
        assert (outcome.failover_s is not None) == (statuses[-1] is not None)

    @given(st.lists(sites, min_size=1, max_size=30))
    def test_failover_marks_start_of_stable_suffix(self, statuses):
        log = scenario(statuses)
        outcome = target_outcome(log, "sea1", T_FAIL)
        if outcome.failover_s is None:
            return
        # Index of the probe whose reply time matches failover_s.
        idx = round((outcome.failover_s - 0.1) / 1.5)
        suffix = statuses[idx:]
        assert all(s == outcome.final_site for s in suffix)
        if idx > 0:
            assert statuses[idx - 1] != outcome.final_site


class TestOutcomesForRun:
    def test_multiple_targets(self):
        log1 = scenario(["ams", "ams"])
        other = IPv4Address.parse("10.0.1.1")
        log2 = ProbeLog(target=other, target_node="eye2", request_latency=0.1)
        log2.probes.append(Probe(99, T_FAIL, reply_at=T_FAIL + 0.2, site="bos"))
        outcomes = outcomes_for_run({TARGET: log1, other: log2}, "sea1", T_FAIL)
        assert len(outcomes) == 2
        by_target = {o.target: o for o in outcomes}
        assert by_target[TARGET].final_site == "ams"
        assert by_target[other].final_site == "bos"


class TestBounceStatistics:
    def make_outcome(self, recon, failover, bounces, disconnections):
        return TargetOutcome(
            target=TARGET, failed_site="sea1",
            reconnection_s=recon, failover_s=failover,
            bounces=bounces, disconnections=disconnections,
            final_site="ams" if failover is not None else None,
        )

    def test_paper_claims_shape(self):
        outcomes = [
            self.make_outcome(5.0, 5.0, 0, 0),
            self.make_outcome(5.0, 10.0, 1, 0),
            self.make_outcome(5.0, 12.0, 2, 0),
            self.make_outcome(5.0, 40.0, 5, 2),
        ]
        stats = bounce_statistics(outcomes)
        assert stats.n == 4
        assert stats.at_most_two_bounces == pytest.approx(0.75)
        assert stats.no_disconnection == pytest.approx(0.75)
        assert stats.mean_gap_s == pytest.approx((0 + 5 + 7 + 35) / 4)

    def test_never_reconnected_excluded(self):
        outcomes = [
            self.make_outcome(None, None, 0, 0),
            self.make_outcome(3.0, 3.0, 0, 0),
        ]
        stats = bounce_statistics(outcomes)
        assert stats.n == 1

    def test_empty(self):
        stats = bounce_statistics([])
        assert stats.n == 0
        assert "n=0" in stats.summary()

    def test_censored_targets_excluded_from_gap(self):
        outcomes = [
            self.make_outcome(2.0, None, 1, 3),  # censored: no failover
            self.make_outcome(2.0, 4.0, 0, 0),
        ]
        stats = bounce_statistics(outcomes)
        assert stats.mean_gap_s == pytest.approx(2.0)
