"""Tests for client-to-site performance analysis."""

import pytest

from repro.measurement.catchment import anycast_catchment
from repro.measurement.performance import (
    ClientPerformance,
    PerformanceReport,
    SiteRttTable,
    analyze_performance,
)


@pytest.fixture(scope="module")
def rtt_table(deployment):
    return SiteRttTable(deployment.topology, deployment)


@pytest.fixture(scope="module")
def anycast_report(deployment, rtt_table):
    catchment = anycast_catchment(deployment.topology, deployment)
    return analyze_performance(deployment.topology, deployment, catchment, rtt_table)


class TestSiteRttTable:
    def test_rtt_positive(self, deployment, rtt_table):
        client = deployment.topology.web_client_ases()[0].node_id
        rtt = rtt_table.rtt_ms(client, "sea1")
        assert rtt is not None and rtt > 0

    def test_best_site_is_minimum(self, deployment, rtt_table):
        client = deployment.topology.web_client_ases()[0].node_id
        best_site, best_rtt = rtt_table.best_site(client)
        for site in deployment.site_names:
            rtt = rtt_table.rtt_ms(client, site)
            if rtt is not None:
                assert best_rtt <= rtt

    def test_regional_best_site(self, deployment, rtt_table):
        """A us-west client's best site must be in the western US."""
        client = next(
            info.node_id
            for info in deployment.topology.web_client_ases()
            if info.location.region == "us-west"
        )
        best_site, _ = rtt_table.best_site(client)
        assert deployment.sites[best_site].region in ("us-west", "us-mountain")


class TestAnycastSuboptimality:
    def test_some_clients_suboptimal(self, anycast_report):
        """§2's premise: anycast routes a subset of clients to
        suboptimal sites."""
        assert anycast_report.suboptimal_fraction() > 0.1

    def test_not_all_clients_suboptimal(self, anycast_report):
        assert anycast_report.suboptimal_fraction() < 0.9

    def test_inflation_nonnegative(self, anycast_report):
        assert all(v >= 0 for v in anycast_report.inflation_values())

    def test_inflated_fraction_decreases_with_threshold(self, anycast_report):
        f5 = anycast_report.inflated_fraction(5.0)
        f50 = anycast_report.inflated_fraction(50.0)
        assert f50 <= f5

    def test_optimal_assignment_has_no_inflation(self, deployment, rtt_table):
        """Steering every client to its best site (unicast-grade control)
        zeroes the inflation -- the control half of the trade-off."""
        clients = [
            info.node_id for info in deployment.topology.web_client_ases()
        ][:20]
        optimal = {c: rtt_table.best_site(c)[0] for c in clients}
        report = analyze_performance(
            deployment.topology, deployment, optimal, rtt_table
        )
        assert report.suboptimal_fraction() == 0.0
        assert all(v == 0.0 for v in report.inflation_values())


class TestReportEdgeCases:
    def test_empty_report(self):
        report = PerformanceReport()
        assert report.suboptimal_fraction() == 0.0
        assert report.inflated_fraction() == 0.0

    def test_unserved_client_excluded(self):
        report = PerformanceReport(
            clients=[
                ClientPerformance(
                    node="x", served_by=None, served_rtt_ms=None,
                    best_site="ams", best_rtt_ms=10.0,
                )
            ]
        )
        assert report.measured == []
