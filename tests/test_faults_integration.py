"""Integration tests: fault plans driving drills and scenarios.

Covers the acceptance path for the fault layer: a drill run under a
session-reset fault shows traffic re-converging to the restored site
(because the reopened session re-advertises its Loc-RIB), the drill
audits clean, and the parallel path is identical to the serial one.
"""

from pathlib import Path

import pytest

from repro.core.drill import RotationDrill
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import ReactiveAnycast
from repro.faults import FaultInjector, FaultPlan, SessionReset, load_fault_plan
from repro.topology.testbed import SECOND_PREFIX

from tests.conftest import FAST_TIMING

EXAMPLE_PLAN = Path(__file__).resolve().parent.parent / "examples" / "faultplan.json"


@pytest.fixture(scope="module")
def clients(topology):
    return [info.node_id for info in topology.web_client_ases()][:8]


class TestSessionResetReconvergence:
    """The acceptance scenario: bounce a site's only BGP session and
    watch its traffic drain, then return once the session reopens and
    re-advertises the Loc-RIB."""

    SITE = "site:sea1"
    PROVIDER = "tr-us-west-0"

    def build(self, topology):
        net = topology.build_network(seed=0, timing=FAST_TIMING)
        # Anycast SECOND_PREFIX from sea1 and msn only, so sea1 has a
        # stable catchment we can watch move.
        for node in (self.SITE, "site:msn"):
            net.announce(node, SECOND_PREFIX)
        net.converge()
        return net

    def sea1_clients(self, net, topology):
        return [
            info.node_id
            for info in topology.web_client_ases()
            if (route := net.router(info.node_id).best_route(SECOND_PREFIX))
            and route.origin_node == self.SITE
        ]

    def test_traffic_reconverges_to_reset_site(self, topology):
        net = self.build(topology)
        watched = self.sea1_clients(net, topology)
        assert watched, "sea1 should win some clients before the fault"

        injector = FaultInjector(
            net,
            FaultPlan(faults=(SessionReset(at=5.0, a=self.SITE, b=self.PROVIDER),)),
        )
        injector.arm()
        session = net.router(self.SITE).sessions[self.PROVIDER]
        provider_rib = net.router(self.PROVIDER).adj_rib_in

        # Just past the reset: the provider's Adj-RIB-In was flushed and
        # the re-advertisement is still in flight -- the drain phase.
        epoch_before = session.epoch
        net.run_for(5.0 + 1e-3)
        assert injector.injected == 1
        assert self.SITE not in provider_rib.get(SECOND_PREFIX, {})
        assert session.epoch == epoch_before + 1

        # After convergence the reopened session has re-advertised its
        # Loc-RIB, the provider holds the route again, and every watched
        # client is back at the restored site.
        net.converge()
        assert SECOND_PREFIX in session.advertised
        assert self.SITE in provider_rib[SECOND_PREFIX]
        for client in watched:
            route = net.router(client).best_route(SECOND_PREFIX)
            assert route is not None
            assert route.origin_node == self.SITE

    def test_drill_with_session_reset_passes_invariants(
        self, deployment, topology, clients
    ):
        plan = FaultPlan(
            faults=(SessionReset(at=5.0, a=self.SITE, b=self.PROVIDER),)
        )
        drill = RotationDrill(
            topology, deployment, ReactiveAnycast(),
            deadline_s=60.0, timing=FAST_TIMING,
            fault_plan=plan, check_invariants=True,
        )
        outcome = drill.run_site("msn", clients)
        assert outcome.passed
        assert outcome.violations == ()
        assert outcome.faults_injected == 1
        assert outcome.faults_skipped == 0


class TestDrillUnderExamplePlan:
    def test_example_plan_drill_audits_clean(self, deployment, topology, clients):
        drill = RotationDrill(
            topology, deployment, ReactiveAnycast(),
            deadline_s=60.0, timing=FAST_TIMING,
            fault_plan=load_fault_plan(EXAMPLE_PLAN), check_invariants=True,
        )
        outcome = drill.run_site("atl", clients)
        assert outcome.passed
        assert outcome.violations == ()
        assert outcome.faults_injected == 10  # every fault event landed
        assert outcome.faults_skipped == 0

    def test_outcome_without_plan_reports_zero_faults(
        self, deployment, topology, clients
    ):
        drill = RotationDrill(
            topology, deployment, ReactiveAnycast(),
            deadline_s=60.0, timing=FAST_TIMING,
        )
        outcome = drill.run_site("msn", clients)
        assert outcome.faults_injected == 0
        assert outcome.faults_skipped == 0
        assert outcome.violations == ()


class TestParallelEquivalence:
    def test_workers_identical_with_fault_plan(self, deployment, topology, clients):
        def run(workers: int):
            drill = RotationDrill(
                topology, deployment, ReactiveAnycast(),
                deadline_s=60.0, timing=FAST_TIMING,
                fault_plan=load_fault_plan(EXAMPLE_PLAN), check_invariants=True,
            )
            return drill.run_rotation(clients, workers=workers)

        assert run(1) == run(2)


class TestScenarioWiring:
    def test_scenario_reports_fault_counts(self, deployment, topology):
        runner = ScenarioRunner(
            topology=topology,
            deployment=deployment,
            technique=ReactiveAnycast(),
            specific_site="sea1",
            duration_s=60.0,
            bucket_s=10.0,
            n_targets=5,
            timing=FAST_TIMING,
            fault_plan=FaultPlan(
                faults=(SessionReset(at=5.0, a="site:sea1", b="tr-us-west-0"),)
            ),
        )
        runner.fail(20.0, "sea1")
        report = runner.run()
        assert report.faults_injected == 1
        assert report.faults_skipped == 0
        assert report.mean_availability() > 0.5
