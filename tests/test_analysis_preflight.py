"""Tests for the semantic pre-flight validator (PRE checks)."""

import pytest

from repro import telemetry
from repro.analysis import (
    check_deployment,
    check_events,
    check_prefix_plan,
    check_run_shape,
    check_targets,
    check_timing,
    check_topology,
    preflight_run,
)
from repro.bgp.damping import DampingConfig
from repro.bgp.session import DEFAULT_INTERNET_TIMING, SessionTiming
from repro.core.techniques import Anycast, Combined, ReactiveAnycast
from repro.faults import Action, Brownout, FaultPlan, timeline
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.geo import place_in
from repro.topology.relationships import AsClass, AsInfo
from repro.topology.testbed import build_deployment

import random


@pytest.fixture(scope="module")
def deployment():
    return build_deployment(params=TopologyParams(seed=42))


def codes(findings):
    return [f.code for f in findings]


def events(*triples):
    """``(kind, site, at)`` triples as the actions ``-e`` builds."""
    return [Action(at, kind, site) for kind, site, at in triples]


class TestEvents:
    def test_valid_timeline_is_clean(self):
        assert check_events(events(("fail", "sea1", 60.0), ("recover", "sea1", 200.0))) == []

    def test_recover_before_fail_is_error(self):
        findings = check_events(events(("recover", "sea1", 10.0), ("fail", "sea1", 60.0)))
        assert "PRE105" in codes(findings)

    def test_undrain_without_drain_is_error(self):
        findings = check_events(events(("undrain", "ams", 50.0)))
        assert codes(findings) == ["PRE105"]

    def test_double_fail_warns(self):
        findings = check_events(events(("fail", "sea1", 10.0), ("fail-silent", "sea1", 20.0)))
        assert codes(findings) == ["PRE106"]
        assert not findings[0].severity.blocking

    def test_drain_then_undrain_is_clean(self):
        assert check_events(events(("drain", "ams", 10.0), ("undrain", "ams", 60.0))) == []

    def test_accepts_scenario_event_objects(self):
        assert check_events([Action(at=60.0, action="fail", target="sea1")]) == []

    def test_ordering_sees_plan_edges_and_events_as_one_timeline(self):
        """A plan brownout is the same two edges ``-e`` spells: an event
        inside its window collides with it, one after its end does not."""
        plan = FaultPlan(faults=(Brownout(at=10.0, site="msn", down_for=50.0),))
        inside = timeline(plan, events(("brownout", "msn", 30.0)))
        findings = check_events(inside, capacity=object())
        assert codes(findings) == ["PRE106"]
        assert findings[0].source == "scenario event (brownout:msn@30)"
        after = timeline(plan, events(("brownout", "msn", 70.0), ("unbrownout", "msn", 90.0)))
        assert check_events(after, capacity=object()) == []
        # ... and a plan brownout with no capacity profile is PRE107 too
        assert codes(check_events(timeline(plan))) == ["PRE107"]
        assert check_events(timeline(plan))[0].source == "faults[0] (brownout)"


class TestPrefixPlan:
    def test_defaults_are_clean(self):
        for technique in (None, Anycast(), ReactiveAnycast(), Combined()):
            assert check_prefix_plan(technique) == []

    def test_probe_source_outside_prefix(self):
        findings = check_prefix_plan(
            Anycast(),
            prefix=IPv4Prefix.parse("184.164.244.0/24"),
            probe_source=IPv4Address.parse("192.0.2.1"),
        )
        assert codes(findings) == ["PRE112"]


class TestTopology:
    def test_generated_topology_is_clean(self, deployment):
        assert check_topology(deployment.topology) == []

    def test_isolated_as_warns(self):
        from repro.topology.generator import Topology

        rng = random.Random(0)
        topo = Topology(params=TopologyParams())
        topo.add_as(AsInfo("lonely", 1, AsClass.STUB, place_in("us-west", rng)))
        findings = check_topology(topo)
        assert codes(findings) == ["PRE121"]
        assert not findings[0].severity.blocking


class TestDeployment:
    def test_default_deployment_is_clean(self, deployment):
        assert check_deployment(deployment) == []

    def test_single_site_deployment_is_error(self):
        from repro.topology.testbed import build_deployment, default_site_specs

        specs = default_site_specs()[:1]
        single = build_deployment(
            params=TopologyParams(seed=42), specs=specs
        )
        findings = check_deployment(single)
        assert codes(findings) == ["PRE123"]


class TestTargets:
    def test_clean_targets(self, deployment):
        nodes = [info.node_id for info in deployment.topology.web_client_ases()[:3]]
        assert check_targets(deployment.topology, nodes) == []

    def test_unknown_target(self, deployment):
        findings = check_targets(deployment.topology, ["no-such-as"])
        assert codes(findings) == ["PRE124"]

    def test_target_without_prefix(self, deployment):
        findings = check_targets(deployment.topology, ["t1-0"])  # tier-1: no prefix
        assert codes(findings) == ["PRE124"]

    def test_none_is_clean(self, deployment):
        assert check_targets(deployment.topology, None) == []


class TestTiming:
    def test_default_profile_is_clean(self):
        assert check_timing(DEFAULT_INTERNET_TIMING) == []

    def test_zero_mrai_warns(self):
        findings = check_timing(SessionTiming(mrai=0.0))
        assert codes(findings) == ["PRE130"]
        assert not findings[0].severity.blocking

    def test_negative_latency_is_error(self):
        findings = check_timing(SessionTiming(latency=-1.0))
        assert "PRE131" in codes(findings)

    def test_huge_mrai_warns(self):
        findings = check_timing(SessionTiming(mrai=120.0))
        assert codes(findings) == ["PRE132"]

    def test_damping_first_flap_suppression_warns(self):
        damping = DampingConfig(penalty_per_flap=2000.0, suppress_threshold=2000.0,
                                reuse_threshold=750.0)
        findings = check_timing(DEFAULT_INTERNET_TIMING, damping)
        assert codes(findings) == ["PRE133"]

    def test_damping_never_suppresses_warns(self):
        damping = DampingConfig(max_penalty=1000.0)
        findings = check_timing(DEFAULT_INTERNET_TIMING, damping)
        assert codes(findings) == ["PRE134"]

    def test_default_damping_is_clean(self):
        assert check_timing(DEFAULT_INTERNET_TIMING, DampingConfig()) == []


class TestRunShape:
    def test_clean(self):
        assert check_run_shape(duration=300.0, detection_delay=2.0) == []

    def test_non_positive_duration(self):
        assert codes(check_run_shape(duration=0.0)) == ["PRE135"]

    def test_negative_detection_delay(self):
        assert codes(check_run_shape(detection_delay=-1.0)) == ["PRE136"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_are_refused_under_their_own_codes(self, value):
        """NaN fails ``<= 0`` and +inf passes it: neither is a window
        the prober can schedule against."""
        assert codes(check_run_shape(duration=value)) == ["PRE135"]
        assert codes(check_run_shape(detection_delay=value)) == ["PRE136"]
        findings = check_run_shape(duration=value, detection_delay=value)
        assert codes(findings) == ["PRE135", "PRE136"]
        assert all("is not finite" in f.message for f in findings)


class TestPreflightRun:
    def test_good_run_is_ok(self, deployment):
        report = preflight_run(
            deployment, ReactiveAnycast(),
            events=[("fail", "sea1", 60.0), ("recover", "sea1", 200.0)],
            duration=300.0, detection_delay=2.0,
            timing=DEFAULT_INTERNET_TIMING,
        )
        assert report.ok
        assert report.findings == []

    def test_bad_run_collects_across_checks(self, deployment):
        report = preflight_run(
            deployment, ReactiveAnycast(),
            events=[("recover", "sea1", 60.0)],
            duration=-1.0,
        )
        assert not report.ok
        assert {"PRE105", "PRE135"} <= set(codes(report.findings))

    def test_findings_reach_telemetry_counters(self, deployment):
        with telemetry.using(telemetry.Telemetry()) as active:
            preflight_run(deployment, events=[("recover", "sea1", 60.0)])
            snapshot = active.snapshot()
        assert snapshot["counters"]["analysis.preflight.findings"] == 1
        assert snapshot["counters"]["analysis.preflight.errors"] == 1
        assert snapshot["counters"]["analysis.finding.PRE105"] == 1
