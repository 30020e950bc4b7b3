"""The run rig and the one delivery verdict.

* the rig's assembly facts (capacity binds iff a workload is attached,
  one ``dead_sites`` set, the injector acts on the bound state);
* a differential test that the prober, the catchment cache / workload
  engine and the availability ledger agree on every delivery, on FIB
  states sampled mid-convergence;
* the three workload seed tags, pinned by literal account values
  captured at the commit before the rig existed.
"""

import pytest

from repro import telemetry
from repro.bgp.session import DEFAULT_INTERNET_TIMING
from repro.core.drill import RotationDrill
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.rig import RunRig
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import Anycast, ProactiveSuperprefix, ReactiveAnycast
from repro.dataplane.forwarding import CLASS_BY_REASON, delivery_verdict
from repro.dataplane.ping import Probe, Prober
from repro.faults import Brownout, FaultPlan
from repro.obs.ledger import OUTAGE_CLASSES
from repro.telemetry.trace import ProbeLost, ProbeReply
from repro.topology.testbed import SUPERPREFIX, CdnDeployment, SiteSpec
from repro.workload import builtin_profile, load_capacity
from repro.workload.engine import WorkloadEngine

from tests.conftest import FAST_TIMING, hand_chunk


def make_rig(deployment, technique=None, site="sea1", **kwargs):
    network = deployment.topology.build_network(seed=3, timing=FAST_TIMING)
    return RunRig(network, deployment, technique or ReactiveAnycast(), site, **kwargs)


class TestAssembly:
    def test_capacity_binds_iff_a_workload_is_attached(self, deployment):
        capacity = load_capacity("examples/capacity.json")
        workload = builtin_profile("constant")
        assert make_rig(deployment).capacity_state is None
        assert make_rig(deployment, capacity=capacity).capacity_state is None
        assert make_rig(deployment, workload=workload).capacity_state is None
        bound = make_rig(deployment, workload=workload, capacity=capacity)
        assert bound.capacity_state is not None
        assert bound.controller.capacity_state is bound.capacity_state

    def test_overload_signal_is_wired_iff_capacity_is_bound(self, deployment):
        workload = builtin_profile("constant")
        unbound = make_rig(deployment, workload=workload)
        unbound.start_workload(5.0, 0, "t")
        assert unbound.engine.capacity is None
        assert unbound.engine.on_overload is None
        bound = make_rig(
            deployment, workload=workload, capacity=load_capacity("examples/capacity.json")
        )
        bound.start_workload(5.0, 0, "t")
        assert bound.engine.capacity is bound.capacity_state
        assert bound.engine.on_overload == bound.controller.site_overloaded

    def test_prober_and_engine_share_one_dead_sites_set(self, deployment):
        rig = make_rig(deployment, workload=builtin_profile("constant"))
        rig.start_workload(5.0, 0, "t")
        assert rig.engine.dead_sites is rig.prober.dead_sites
        rig.fail("sea1")
        assert rig.engine.dead_sites == {"sea1"}

    def test_no_workload_means_no_engine(self, deployment):
        rig = make_rig(deployment)
        rig.start_workload(5.0, 0, "t")
        assert rig.engine is None
        assert rig.capacity_violations() == []

    def test_injector_acts_on_the_bound_state(self, deployment):
        plan = FaultPlan(faults=(Brownout(at=1.0, site="sea1", down_for=5.0),))
        capacity = load_capacity("examples/capacity.json")
        bound = make_rig(
            deployment, workload=builtin_profile("constant"),
            capacity=capacity, fault_plan=plan,
        )
        assert bound.injector.capacity is bound.capacity_state
        bound.network.run_for(2.0)
        assert (bound.injector.injected, bound.injector.skipped) == (1, 0)
        # Without a workload nothing would read the state, so the same
        # plan's brownout is a skipped fault, for every runner.
        unbound = make_rig(deployment, capacity=capacity, fault_plan=plan)
        unbound.network.run_for(2.0)
        assert (unbound.injector.injected, unbound.injector.skipped) == (0, 1)

    def test_one_site_deployment_is_a_value_error(self, deployment):
        lonely = CdnDeployment(
            topology=deployment.topology,
            sites={"sea1": SiteSpec(name="sea1", region="us-west", providers=())},
        )
        network = deployment.topology.build_network(seed=3, timing=FAST_TIMING)
        with pytest.raises(ValueError, match=r"\['sea1'\].*no second site.*'sea1'"):
            RunRig(network, lonely, ReactiveAnycast(), "sea1")


# ----------------------------------------------------------------------
# One verdict: prober == catchment cache/engine == ledger


CASES = [
    # (technique, silent failure, non-site AS originating the superprefix)
    (Anycast(), True, None),
    (ReactiveAnycast(), False, None),
    (ProactiveSuperprefix(), False, "tr-us-west-0"),
]


class TestOneVerdict:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_prober_cache_and_ledger_agree_mid_convergence(self, deployment, seed):
        clients = [i.node_id for i in deployment.topology.web_client_ases()]
        seen: set[str | None] = set()
        for technique, silent, leaker in CASES:
            network = deployment.topology.build_network(
                seed=seed, timing=DEFAULT_INTERNET_TIMING
            )
            rig = RunRig(network, deployment, technique, "sea1")
            if leaker is not None:
                # Someone else's covering prefix: once the /24 is gone,
                # traffic that follows this /23 lands off-net.
                network.announce(leaker, SUPERPREFIX)
                network.converge()
            rig.fail("sea1", silent=silent)
            engine = WorkloadEngine(
                rig.plane, deployment, builtin_profile("constant"), seed=0,
                dead_sites=rig.dead_sites,
            )
            for _ in range(12):
                network.run_for(0.7)
                for client in clients:
                    result = rig.plane.snapshot_path(client, rig.dst)
                    site, reason = delivery_verdict(result, deployment, rig.dead_sites)
                    seen.add(reason)
                    # The prober, fed the same forward.
                    event = self.prober_event(rig, result)
                    if reason is None:
                        assert isinstance(event, ProbeReply) and event.site == site
                    else:
                        assert isinstance(event, ProbeLost) and event.reason == reason
                    # The catchment cache's routing half of the verdict.
                    resolution = engine.cache.resolve(client)
                    assert resolution.node == result.delivered_to
                    assert resolution.reason == (None if reason == "dead-site" else reason)
                    # The ledger's class for the reason the prober emitted
                    # is the class the workload engine books the request to.
                    ledger_class = CLASS_BY_REASON[reason] if reason else "served"
                    assert self.engine_class(engine, client) == ledger_class
                    assert rig.live_site(client) == (site if reason is None else None)
        assert {"no-route", "loop", "off-net", "dead-site", None} <= seen
        assert set(CLASS_BY_REASON.values()) == set(OUTAGE_CLASSES)

    @staticmethod
    def engine_class(engine, client):
        """The account bucket one request from ``client`` lands in now."""
        account = engine.account

        def buckets():
            return {
                "served": account.served, "blackhole": account.lost_blackhole,
                "loop": account.lost_loop, "wrong-site": account.lost_wrong_site,
            }

        before = buckets()
        times, clients, _ = hand_chunk(engine, [(0.0, client)])
        engine._book(times, clients, 0.0)
        (moved,) = [name for name, count in buckets().items() if count != before[name]]
        return moved

    @staticmethod
    def prober_event(rig, result):
        """What a prober emits when a reply's forward ends as ``result``."""
        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)):
            # Built inside the session: a prober binds its telemetry
            # when constructed.
            prober = Prober(rig.plane, rig.deployment, rig.dst, "ams")
            prober.dead_sites = rig.dead_sites
            probe = Probe(seq=1, sent_at=0.0)
            prober._reply_done(rig.dst, probe, result)
        (event,) = [e for e in tracer.events if isinstance(e, (ProbeLost, ProbeReply))]
        # The record carries the verdict the event states.
        if isinstance(event, ProbeReply):
            assert (probe.site, probe.reply_at, probe.reason) == (event.site, event.t, None)
        else:
            assert (probe.site, probe.reply_at, probe.reason) == (None, None, event.reason)
        return event


# ----------------------------------------------------------------------
# The three workload seed tags


class TestSeedTags:
    """Literal accounts captured at the parent of the rig commit: a
    changed tag string changes the stream, so ``offered`` moves."""

    def test_experiment_tag(self, deployment):
        experiment = FailoverExperiment(
            deployment.topology, deployment,
            FailoverConfig(
                probe_duration=20.0, targets_per_site=4, timing=FAST_TIMING,
                workload=builtin_profile("constant"), seed=7,
            ),
        )
        account = experiment.run_site(ReactiveAnycast(), "msn").workload.to_dict()
        assert account["offered"] == 3972
        assert account["lost"] == {"blackhole": 415, "loop": 0, "overload": 0, "wrong-site": 0}
        assert account["served_by_site"] == {
            "ams": 329, "ath": 616, "atl": 43, "bos": 1542, "sea1": 311,
            "sea2": 588, "slc": 128,
        }
        assert (account["technique"], account["site"]) == ("reactive-anycast", "msn")

    def test_drill_tag(self, deployment):
        clients = [i.node_id for i in deployment.topology.web_client_ases()][:8]
        drill = RotationDrill(
            deployment.topology, deployment, ReactiveAnycast(), deadline_s=20.0,
            timing=FAST_TIMING, seed=7, workload=builtin_profile("constant"),
        )
        account = drill.run_site("msn", clients).workload.to_dict()
        assert account["offered"] == 3801
        assert account["lost"] == {"blackhole": 365, "loop": 0, "overload": 0, "wrong-site": 0}
        assert account["served_by_site"] == {"bos": 1920, "sea2": 1265, "slc": 251}
        assert (account["technique"], account["site"]) == ("reactive-anycast", "msn")

    def test_scenario_tag(self, deployment):
        runner = ScenarioRunner(
            topology=deployment.topology, deployment=deployment,
            technique=ReactiveAnycast(), specific_site="sea1", duration_s=20.0,
            n_targets=4, timing=FAST_TIMING, seed=7,
            workload=builtin_profile("constant"),
        )
        runner.fail(5.0, "sea1")
        account = runner.run().workload.to_dict()
        assert account["offered"] == 3963
        assert account["lost"] == {"blackhole": 518, "loop": 0, "overload": 0, "wrong-site": 0}
        assert account["served_by_site"] == {
            "ams": 284, "ath": 432, "atl": 23, "bos": 37, "msn": 1088,
            "sea1": 927, "sea2": 561, "slc": 93,
        }
        assert (account["technique"], account["site"]) == ("reactive-anycast", "sea1")
