"""Tests for the Appendix A/B high-level harnesses."""

import pytest

from repro.bgp.session import SessionTiming
from repro.measurement.appendix import (
    announced_prefix_snapshot,
    covered_prefix_fraction,
    run_propagation_study,
    run_withdrawal_study,
)
from repro.measurement.stats import Cdf

#: Moderate pacing keeps these integration tests quick while still
#: exercising MRAI dynamics.
STUDY_TIMING = SessionTiming(latency=0.05, jitter=0.5, mrai=8.0, busy_prob=0.3)


@pytest.fixture(scope="module")
def withdrawal_samples(deployment):
    return run_withdrawal_study(
        deployment.topology, deployment,
        sites=["sea1", "msn"], timing=STUDY_TIMING, seed=3,
    )


@pytest.fixture(scope="module")
def propagation_samples(deployment):
    return run_propagation_study(
        deployment.topology, deployment,
        sites=deployment.site_names, timing=STUDY_TIMING, seed=3,
    )


class TestWithdrawalStudy:
    def test_both_populations_sampled(self, withdrawal_samples):
        assert len(withdrawal_samples.hypergiant) > 20
        assert len(withdrawal_samples.testbed) > 20

    def test_distributions_similar(self, withdrawal_samples):
        """Figure 3's point: PEERING withdrawals converge like
        hypergiant withdrawals (similar medians)."""
        hg = Cdf(withdrawal_samples.hypergiant).median()
        tb = Cdf(withdrawal_samples.testbed).median()
        assert 0.3 < hg / tb < 3.0

    def test_ground_truth_variant(self, deployment):
        samples = run_withdrawal_study(
            deployment.topology, deployment,
            sites=["sea1"], timing=STUDY_TIMING, seed=4, use_estimator=False,
        )
        assert all(v >= 0 for v in samples.combined())


class TestPropagationStudy:
    def test_both_populations_sampled(self, propagation_samples):
        assert len(propagation_samples.hypergiant) > 20
        assert len(propagation_samples.testbed) > 20

    def test_propagation_faster_than_withdrawal(
        self, withdrawal_samples, propagation_samples
    ):
        """The asymmetry the paper's techniques exploit: announcements
        propagate much faster than withdrawals converge."""
        prop = Cdf(propagation_samples.combined()).median()
        wd = Cdf(withdrawal_samples.combined()).median()
        assert wd > 2 * prop


class TestPrefixSnapshot:
    def test_covered_fraction_between_zero_and_one(self, deployment):
        snapshot = announced_prefix_snapshot(deployment.topology)
        fraction = covered_prefix_fraction(snapshot)
        assert 0.0 < fraction < 1.0

    def test_snapshot_contains_all_hypergiants(self, deployment):
        snapshot = announced_prefix_snapshot(deployment.topology)
        assert len(snapshot) == deployment.topology.params.n_hypergiant
