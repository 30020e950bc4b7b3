"""Tests for the hybrid anycast/unicast steering plan."""

from repro.dns.authoritative import AuthoritativeServer, StaticMapping
from repro.dns.hybrid import build_steering_plan
from repro.measurement.performance import ClientPerformance, PerformanceReport
from repro.net.addr import IPv4Address

ANYCAST = IPv4Address.parse("184.164.244.1")
SEA1 = IPv4Address.parse("184.164.244.10")
AMS = IPv4Address.parse("184.164.244.20")


def perf(node, served, served_rtt, best, best_rtt) -> ClientPerformance:
    return ClientPerformance(
        node=node, served_by=served, served_rtt_ms=served_rtt,
        best_site=best, best_rtt_ms=best_rtt,
    )


class TestSteeringPlan:
    def report(self) -> PerformanceReport:
        return PerformanceReport(
            clients=[
                perf("good", "sea1", 10.0, "sea1", 10.0),       # optimal
                perf("mild", "ams", 14.0, "sea1", 10.0),        # +4ms: below threshold
                perf("bad", "ams", 30.0, "sea1", 10.0),         # +20ms
                perf("worse", "ams", 80.0, "sea1", 10.0),       # +70ms
            ]
        )

    def test_plan_selects_above_threshold(self):
        plan = build_steering_plan(self.report(), inflation_threshold_ms=5.0)
        assert [e.client for e in plan] == ["worse", "bad"]
        assert all(e.site == "sea1" for e in plan)

    def test_plan_ordered_worst_first(self):
        plan = build_steering_plan(self.report())
        inflations = [e.anycast_inflation_ms for e in plan]
        assert inflations == sorted(inflations, reverse=True)

    def test_max_clients_cap(self):
        plan = build_steering_plan(self.report(), max_clients=1)
        assert len(plan) == 1
        assert plan[0].client == "worse"

    def test_plan_applies_to_mapping(self):
        plan = build_steering_plan(self.report())
        mapping = StaticMapping(default_site="anycast")
        for entry in plan:
            mapping.steer(entry.client, entry.site)
        server = AuthoritativeServer(
            "cdn.example", mapping, {"anycast": ANYCAST, "sea1": SEA1, "ams": AMS}
        )
        assert server.query("cdn.example", "worse", 0.0).address == SEA1
        assert server.query("cdn.example", "good", 0.0).address == ANYCAST

    def test_end_to_end_on_deployment(self, deployment):
        """Steering the suboptimal anycast clients to their best sites
        strictly reduces the inflated fraction."""
        from repro.measurement.catchment import anycast_catchment
        from repro.measurement.performance import SiteRttTable, analyze_performance

        table = SiteRttTable(deployment.topology, deployment)
        catchment = anycast_catchment(deployment.topology, deployment)
        before = analyze_performance(deployment.topology, deployment, catchment, table)
        plan = build_steering_plan(before, inflation_threshold_ms=5.0)
        assert plan, "deployment should have steerable clients"
        steered = dict(catchment)
        for entry in plan:
            steered[entry.client] = entry.site
        after = analyze_performance(deployment.topology, deployment, steered, table)
        assert after.inflated_fraction(5.0) < before.inflated_fraction(5.0)
