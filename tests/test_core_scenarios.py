"""Tests for site recovery and multi-event scenarios."""

import pytest

from repro.bgp.session import SessionTiming
from repro.core.controller import CdnController
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import Anycast, ReactiveAnycast, Unicast
from repro.dns.authoritative import AuthoritativeServer, StaticMapping
from repro.faults import Action
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX

from tests.conftest import FAST_TIMING

SCENARIO_TIMING = SessionTiming(latency=0.05, jitter=0.3, mrai=5.0, busy_prob=0.2)


def make_controller(deployment, technique, dns=None):
    network = deployment.topology.build_network(seed=12, timing=FAST_TIMING)
    return CdnController(
        network=network,
        deployment=deployment,
        technique=technique,
        prefix=SPECIFIC_PREFIX,
        superprefix=SUPERPREFIX,
        detection_delay=1.0,
        dns=dns,
    )


class TestRecovery:
    def test_recovered_site_reannounces(self, deployment):
        controller = make_controller(deployment, Anycast())
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("sea1")
        controller.network.converge()
        controller.recover_site("sea1")
        controller.network.converge()
        node = deployment.site_node("sea1")
        assert SPECIFIC_PREFIX in controller.network.routers[node].originated_prefixes()

    def test_reactive_emergency_announcements_rolled_back(self, deployment):
        controller = make_controller(deployment, ReactiveAnycast())
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("sea1")
        controller.network.converge()
        ams = deployment.site_node("ams")
        assert SPECIFIC_PREFIX in controller.network.routers[ams].originated_prefixes()
        controller.recover_site("sea1")
        controller.network.converge()
        assert SPECIFIC_PREFIX not in controller.network.routers[ams].originated_prefixes()
        # Control is back at the intended site: clients route to sea1.
        client = deployment.topology.web_client_ases()[0].node_id
        route = controller.network.router(client).best_route(SPECIFIC_PREFIX)
        assert route is not None
        assert route.origin_node == deployment.site_node("sea1")

    def test_recover_before_deploy_rejected(self, deployment):
        controller = make_controller(deployment, Anycast())
        with pytest.raises(RuntimeError):
            controller.recover_site("sea1")

    def test_recover_unknown_site_rejected(self, deployment):
        controller = make_controller(deployment, Anycast())
        controller.deploy("sea1")
        with pytest.raises(KeyError):
            controller.recover_site("lhr")

    def test_dns_restored_on_recovery(self, deployment):
        addresses = {
            site: SPECIFIC_PREFIX.address(10 + i)
            for i, site in enumerate(deployment.site_names)
        }
        dns = AuthoritativeServer(
            "cdn.example", StaticMapping(default_site="sea1"), addresses, ttl=20.0
        )
        controller = make_controller(deployment, Unicast(), dns=dns)
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("sea1")
        controller.network.run_for(2.0)
        assert "sea1" not in dns.site_addresses
        controller.recover_site("sea1")
        assert "sea1" in dns.site_addresses
        assert dns.policy.default_site == "sea1"


class TestScenarioEvents:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            Action(at=-1.0, action="fail", target="sea1")
        with pytest.raises(ValueError):
            Action(at=0.0, action="explode", target="sea1")


class TestScenarioRunner:
    def make_runner(self, deployment, technique, **kwargs):
        defaults = dict(
            topology=deployment.topology,
            deployment=deployment,
            technique=technique,
            specific_site="sea1",
            duration_s=120.0,
            n_targets=10,
            timing=SCENARIO_TIMING,
            bucket_s=10.0,
        )
        defaults.update(kwargs)
        return ScenarioRunner(**defaults)

    def test_quiet_scenario_fully_available(self, deployment):
        runner = self.make_runner(deployment, ReactiveAnycast())
        result = runner.run()
        assert result.mean_availability() > 0.99
        assert result.downtime_s() == 0.0

    def test_fail_and_recover_dip(self, deployment):
        """Anycast: availability dips around the failure for the failed
        site's catchment, then returns once other sites absorb it, and
        stays up after recovery."""
        from repro.measurement.catchment import anycast_catchment

        catchment = anycast_catchment(deployment.topology, deployment)
        sea1_clients = [n for n, s in catchment.items() if s == "sea1"][:10]
        assert sea1_clients, "sea1 must have a catchment"
        runner = self.make_runner(
            deployment, Anycast(), target_nodes=sea1_clients
        )
        runner.fail(30.0, "sea1").recover(80.0, "sea1")
        result = runner.run()
        availability = result.availability()
        # Something was lost around the failure bucket...
        assert min(availability[3:6]) < 1.0
        # ...but the episode ends healthy.
        assert availability[-2] > 0.9
        assert result.worst_bucket() < 1.0

    def test_unicast_outage_is_unbounded_without_dns(self, deployment):
        """Pure unicast with no DNS reaction: targets stay dark from the
        failure to the end of the scenario."""
        runner = self.make_runner(deployment, Unicast())
        runner.fail(30.0, "sea1")
        result = runner.run()
        availability = result.availability()
        assert availability[1] > 0.9          # before failure
        assert max(availability[5:]) < 0.2    # after failure: dark
        assert result.downtime_s() >= 60.0

    def test_reactive_anycast_bounds_outage(self, deployment):
        runner = self.make_runner(deployment, ReactiveAnycast())
        runner.fail(30.0, "sea1")
        result = runner.run()
        availability = result.availability()
        # Recovered within a couple of buckets of the failure.
        assert max(availability[6:]) > 0.9
        assert result.downtime_s(threshold=0.5) <= 30.0

    def test_rolling_regional_outage(self, deployment):
        """Fail two east-coast sites in sequence under reactive-anycast:
        service survives (the paper's availability goal)."""
        runner = self.make_runner(deployment, ReactiveAnycast(), specific_site="bos")
        runner.fail(30.0, "bos").fail(50.0, "atl")
        result = runner.run()
        assert result.mean_availability() > 0.7
        assert result.availability()[-2] > 0.9

    def test_report_bookkeeping(self, deployment):
        runner = self.make_runner(deployment, Anycast())
        runner.fail(30.0, "sea1")
        result = runner.run()
        assert [e.action for e in result.events] == ["fail"]
        sent_total = sum(sent for _, sent in result.buckets)
        assert sent_total > 0


class TestRecoveryGrace:
    def test_make_before_break_improves_flap_availability(self, deployment):
        """Rolling back emergency announcements only after the recovered
        site's routes propagate (recovery_grace) strictly helps during a
        flapping episode under reactive-anycast."""
        from repro.bgp.session import DEFAULT_INTERNET_TIMING
        from repro.measurement.catchment import anycast_catchment

        catchment = anycast_catchment(deployment.topology, deployment)
        sea1_clients = [n for n, s in catchment.items() if s == "sea1"][:10]

        def run(grace):
            runner = ScenarioRunner(
                topology=deployment.topology,
                deployment=deployment,
                technique=ReactiveAnycast(),
                specific_site="sea1",
                duration_s=240.0,
                bucket_s=10.0,
                target_nodes=sea1_clients,
                timing=DEFAULT_INTERNET_TIMING,
                recovery_grace=grace,
            )
            runner.fail(60.0, "sea1").recover(120.0, "sea1")
            return runner.run().mean_availability()

        abrupt = run(0.0)
        graceful = run(60.0)
        assert graceful >= abrupt


class TestDrain:
    def test_drain_shifts_catchment_without_loss(self, deployment):
        """Maintenance drain under anycast: the site's catchment moves to
        other sites with zero downtime (make-before-break), then returns
        after undrain."""
        from repro.measurement.catchment import anycast_catchment

        catchment = anycast_catchment(deployment.topology, deployment)
        sea1_clients = [n for n, s in catchment.items() if s == "sea1"][:10]
        runner = ScenarioRunner(
            topology=deployment.topology,
            deployment=deployment,
            technique=Anycast(),
            specific_site="sea1",
            duration_s=180.0,
            bucket_s=10.0,
            target_nodes=sea1_clients,
            timing=SCENARIO_TIMING,
        )
        runner.drain(40.0, "sea1").undrain(120.0, "sea1")
        result = runner.run()
        # Zero downtime through the whole maintenance window.
        assert result.mean_availability() > 0.98
        assert result.downtime_s() == 0.0

    def test_drained_site_loses_catchment(self, deployment):
        """Draining a site with in-place prepended re-origination moves
        most of its anycast catchment; undrain restores it."""
        from repro.core.controller import CdnController
        from repro.measurement.catchment import catchment_from_network

        network = deployment.topology.build_network(seed=15, timing=FAST_TIMING)
        controller = CdnController(
            network=network,
            deployment=deployment,
            technique=Anycast(),
            prefix=SPECIFIC_PREFIX,
            superprefix=SUPERPREFIX,
        )
        controller.deploy("ams")
        network.converge()
        clients = [a.node_id for a in deployment.topology.web_client_ases()]
        before = catchment_from_network(network, deployment, SPECIFIC_PREFIX, clients)
        before_count = sum(1 for s in before.values() if s == "ams")
        controller.drain_site("ams", prepend=5)
        network.converge()
        after = catchment_from_network(network, deployment, SPECIFIC_PREFIX, clients)
        after_count = sum(1 for s in after.values() if s == "ams")
        assert before_count > 0
        assert after_count < before_count
        # Nobody is blackholed: every client still has a serving site.
        assert all(s is not None for s in after.values())
        controller.undrain_site("ams")
        network.converge()
        restored = catchment_from_network(network, deployment, SPECIFIC_PREFIX, clients)
        assert sum(1 for s in restored.values() if s == "ams") == before_count

    def test_drain_unknown_site(self, deployment):
        controller = make_controller(deployment, Anycast())
        with pytest.raises(KeyError):
            controller.drain_site("lhr")
        controller.deploy("sea1")
        with pytest.raises(KeyError):
            controller.undrain_site("lhr")
