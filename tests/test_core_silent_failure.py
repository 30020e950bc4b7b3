"""Tests for silent site failures (crash without BGP withdrawal)."""

import pytest

from repro.core.controller import CdnController
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import Anycast, ReactiveAnycast
from repro.measurement.stats import Cdf
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX

from tests.conftest import FAST_TIMING
from repro.bgp.session import SessionTiming

TEST_TIMING = SessionTiming(latency=0.05, jitter=0.3, mrai=5.0, busy_prob=0.2)


def make_controller(deployment, technique, detection_delay=5.0):
    network = deployment.topology.build_network(seed=9, timing=FAST_TIMING)
    return CdnController(
        network=network,
        deployment=deployment,
        technique=technique,
        prefix=SPECIFIC_PREFIX,
        superprefix=SUPERPREFIX,
        detection_delay=detection_delay,
    )


class TestSilentFailureController:
    def test_announcements_persist_until_detection(self, deployment):
        controller = make_controller(deployment, Anycast(), detection_delay=5.0)
        controller.deploy("sea1")
        controller.network.converge()
        event = controller.fail_site("sea1", silent=True)
        assert event.silent
        node = deployment.site_node("sea1")
        controller.network.run_for(4.0)
        assert SPECIFIC_PREFIX in controller.network.routers[node].originated_prefixes()
        controller.network.run_for(2.0)
        assert controller.network.routers[node].originated_prefixes() == []

    def test_reaction_follows_detection(self, deployment):
        controller = make_controller(deployment, ReactiveAnycast(), detection_delay=5.0)
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("sea1", silent=True)
        ams = deployment.site_node("ams")
        controller.network.run_for(4.0)
        assert SPECIFIC_PREFIX not in controller.network.routers[ams].originated_prefixes()
        controller.network.run_for(2.0)
        assert SPECIFIC_PREFIX in controller.network.routers[ams].originated_prefixes()

    def test_event_records_pending_prefixes(self, deployment):
        controller = make_controller(deployment, Anycast())
        controller.deploy("sea1")
        controller.network.converge()
        event = controller.fail_site("sea1", silent=True)
        assert SPECIFIC_PREFIX in event.withdrawn_prefixes

    def test_unknown_site_rejected(self, deployment):
        controller = make_controller(deployment, Anycast())
        with pytest.raises(KeyError):
            controller.fail_site("lhr", silent=True)


class TestSilentFailureExperiment:
    @pytest.fixture(scope="class")
    def experiments(self, deployment):
        base = dict(probe_duration=120.0, targets_per_site=8, timing=TEST_TIMING, seed=23)
        loud = FailoverExperiment(
            deployment.topology, deployment,
            FailoverConfig(silent_failure=False, detection_delay=10.0, **base),
        )
        silent = FailoverExperiment(
            deployment.topology, deployment,
            FailoverConfig(silent_failure=True, detection_delay=10.0, **base),
        )
        return loud, silent

    def test_silent_failure_pays_detection_delay(self, experiments):
        """With a self-withdrawing site, failover starts immediately;
        silently-failed sites add the detection delay to everyone's
        reconnection clock."""
        loud, silent = experiments
        loud_result = loud.run_site(Anycast(), "msn")
        silent_result = silent.run_site(Anycast(), "msn")
        loud_recon = Cdf.from_optional(
            [o.reconnection_s for o in loud_result.outcomes]
        ).median()
        silent_recon = Cdf.from_optional(
            [o.reconnection_s for o in silent_result.outcomes]
        ).median()
        assert silent_recon >= loud_recon + 5.0

    def test_silent_failure_still_recovers(self, experiments):
        _, silent = experiments
        result = silent.run_site(ReactiveAnycast(), "msn")
        assert result.outcomes
        stabilized = [o for o in result.outcomes if o.failover_s is not None]
        assert len(stabilized) >= 0.8 * len(result.outcomes)
        assert all(o.final_site != "msn" for o in stabilized)
