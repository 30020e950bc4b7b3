"""Tests for the CDN controller's failure handling."""

import pytest

from repro.core.controller import CdnController
from repro.core.techniques import TECHNIQUES, Anycast, Combined, ReactiveAnycast
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX

from tests.conftest import FAST_TIMING


def make_controller(deployment, technique, detection_delay=2.0):
    net = deployment.topology.build_network(seed=4, timing=FAST_TIMING)
    return CdnController(
        network=net,
        deployment=deployment,
        technique=technique,
        prefix=SPECIFIC_PREFIX,
        superprefix=SUPERPREFIX,
        detection_delay=detection_delay,
    )


class TestFailureHandling:
    def test_fail_site_withdraws_immediately(self, deployment):
        controller = make_controller(deployment, Anycast())
        controller.deploy("sea1")
        controller.network.converge()
        event = controller.fail_site("sea1")
        assert SPECIFIC_PREFIX in event.withdrawn_prefixes
        node = deployment.site_node("sea1")
        assert controller.network.router(node).originated_prefixes() == []

    def test_detection_delay_gates_reaction(self, deployment):
        controller = make_controller(deployment, ReactiveAnycast(), detection_delay=5.0)
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("sea1")
        ams = deployment.site_node("ams")
        controller.network.run_for(4.0)
        assert SPECIFIC_PREFIX not in controller.network.router(ams).originated_prefixes()
        controller.network.run_for(2.0)
        assert SPECIFIC_PREFIX in controller.network.router(ams).originated_prefixes()

    def test_failure_event_record(self, deployment):
        controller = make_controller(deployment, Anycast(), detection_delay=3.0)
        controller.deploy("sea1")
        controller.network.converge()
        before = controller.network.now
        event = controller.fail_site("sea1")
        assert event.site == "sea1"
        assert event.failed_at == before
        assert event.detected_at == before + 3.0
        assert controller.failures == [event]

    def test_unknown_site_rejected(self, deployment):
        controller = make_controller(deployment, Anycast())
        with pytest.raises(KeyError):
            controller.deploy("lhr")
        with pytest.raises(KeyError):
            controller.fail_site("lhr")


class TestRecoveryFollowsTargetPlan:
    """Recovery converges on the plan for the *current* down set instead
    of replaying stateless per-technique hooks."""

    @staticmethod
    def originated(controller, site):
        node = controller.deployment.site_node(site)
        return controller.network.router(node).originated_prefixes()

    @pytest.mark.parametrize("factory", [ReactiveAnycast, Combined])
    def test_other_sites_recovery_keeps_the_specific_prefix(self, deployment, factory):
        """fail+recover of a *non-specific* site used to withdraw the
        specific site's /24 with the emergency announcements, leaving
        the prefix announced nowhere."""
        controller = make_controller(deployment, factory())
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("ams")
        controller.network.run_for(3.0)
        assert SPECIFIC_PREFIX in self.originated(controller, "msn")  # emergency is up
        controller.recover_site("ams")
        controller.network.converge()
        assert SPECIFIC_PREFIX in self.originated(controller, "sea1")
        for site in deployment.site_names:
            if site != "sea1":
                assert SPECIFIC_PREFIX not in self.originated(controller, site), site

    @pytest.mark.parametrize("factory", TECHNIQUES.values())
    def test_grace_window_never_resurrects_a_down_site(self, deployment, factory):
        """With a make-before-break grace, recovering one site used to
        re-announce every *other* failed site for the whole window."""
        controller = make_controller(deployment, factory())
        controller.recovery_grace = 30.0
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("ams")
        controller.fail_site("msn")
        controller.network.run_for(3.0)
        controller.recover_site("ams")
        for _ in range(70):
            assert "msn" in controller.down_sites
            assert self.originated(controller, "msn") == []
            controller.network.run_for(0.5)
        # ams is back on its normal announcements
        normal = controller.technique.originations(deployment, "sea1", down={"msn"})
        ams = deployment.site_node("ams")
        assert self.originated(controller, "ams") == [o.prefix for o in normal if o.node == ams]
