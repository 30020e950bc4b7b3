"""Rewinding a held fork: every cell starts where a fresh restore would.

A sweep keeps the network it restored for a technique's baseline and,
before the next cell of that baseline, rewinds it: only the routers the
last cell touched (and their sessions) reload from the snapshot, and the
engine, RNG and network-wide counters reset in full. The oracle is
``restore_network(snapshot)`` itself: after any cell, the rewound
network's full-state fingerprint -- sequence numbers, deadlines and
epochs included -- must equal a fresh restore's. A forgotten reset shows
up here as a fingerprint diff. Of the touched routers' sessions only
those that queued an update since the load reload (``Session.dirty``).
"""

import dataclasses
import json

import pytest

from repro import telemetry
from repro.bgp.collector import RouteCollector
from repro.bgp.damping import DampingConfig
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.session import Session
from repro.checkpoint import CheckpointError, restore_network, rewind_network, snapshot_network
from repro.core import experiment as experiment_module
from repro.core.experiment import FailoverConfig, FailoverExperiment, HeldFork
from repro.core.rig import RunRig
from repro.core.techniques import (
    TECHNIQUES,
    Anycast,
    ProactiveSuperprefix,
    ReactiveAnycast,
    technique_by_name,
)
from repro.faults.plan import FaultPlan
from repro.measurement.export import failover_result_to_dict
from repro.obs import EventProfiler, render_profile
from repro.parallel import matrix, run_sweep
from repro.topology.testbed import build_deployment

from tests.test_checkpoint_codec import PFX, RICH_TIMING, converged_net, fingerprint
from tests.test_verify_propagation import WORLDS


def config(**overrides) -> FailoverConfig:
    # The calibrated default timing: its long MRAIs leave timers running
    # and deliveries queued at the end of the window, as real sweeps do.
    return FailoverConfig(probe_duration=30.0, targets_per_site=3, seed=42, **overrides)


def registered(name: str):
    if name == "proactive-prepending":
        return technique_by_name(name, prepend=3)
    return technique_by_name(name)


def assert_rewinds_to_a_restore(experiment: FailoverExperiment, technique) -> None:
    """Rewind the sweep's held fork after a cell and hold it to a fresh
    restore of the same baseline."""
    snapshot = experiment.baseline_for(technique)
    fork = experiment._fork
    held = fork._network
    assert held.touched, "the cell should have touched some routers"
    assert fork.rewinds(snapshot) == len(held.touched)
    assert fork.fork(snapshot) is held
    fresh = restore_network(snapshot)
    try:
        assert fingerprint(held, exact=True) == fingerprint(fresh, exact=True)
    finally:
        fresh.close()


class TestRewindEqualsRestore:
    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_every_testbed_cell(self, deployment, name):
        technique = registered(name)
        experiment = FailoverExperiment(
            deployment.topology, deployment, config(), use_checkpoint=True
        )
        with experiment.sweeping():
            for site in deployment.site_names:
                experiment.run_site(technique, site)
                assert_rewinds_to_a_restore(experiment, technique)

    def test_wide_world_cells(self):
        deployment = build_deployment(params=WORLDS[-1])
        experiment = FailoverExperiment(
            deployment.topology, deployment, config(), use_checkpoint=True
        )
        cells = [
            (Anycast(), "sea1"), (ProactiveSuperprefix(), "msn"), (ReactiveAnycast(), "ams"),
        ]
        with experiment.sweeping():
            for technique, site in cells:
                experiment.run_site(technique, site)
                assert_rewinds_to_a_restore(experiment, technique)

    def test_damped_cells(self, deployment):
        """Under damping every router's flap state reloads (a release
        timer can move an untouched router's entry)."""
        experiment = FailoverExperiment(
            deployment.topology, deployment, config(damping=DampingConfig()),
            use_checkpoint=True,
        )
        technique = ReactiveAnycast()
        with experiment.sweeping():
            for site in ("msn", "sea1"):
                experiment.run_site(technique, site)
                held = experiment._fork._network
                assert sum(router.damping.flaps for router in held.routers.values()) > 0
                assert_rewinds_to_a_restore(experiment, technique)


class TestRewindNetwork:
    DAMPING = DampingConfig(
        penalty_per_flap=1000.0, suppress_threshold=1500.0,
        reuse_threshold=750.0, half_life=30.0, max_penalty=4000.0,
    )

    def test_suppressed_entries_rearm_as_a_restore_rearms_them(self):
        """A snapshot where r2 suppresses r1's route (a restore queues its
        release timer): the release alone touches r2, and the rewound
        engine queues the same timer under the same sequence number."""
        net = BgpNetwork(seed=3, default_timing=RICH_TIMING, damping=self.DAMPING)
        for i in range(3):
            net.add_router(f"r{i}", 100 + i)
        net.connect("r0", "r1", Relationship.PROVIDER)
        net.connect("r1", "r2", Relationship.PROVIDER)
        net.announce("r0", PFX)
        net.converge()
        snapshot = snapshot_network(net)
        suppressed = ([(PFX, "r1", 3000.0, snapshot.now, True, 1)], 3, 1)
        snapshot = dataclasses.replace(snapshot, routers={
            node: dataclasses.replace(state, loc_rib={}, damping=suppressed)
            if node == "r2" else state
            for node, state in snapshot.routers.items()
        })
        fork = restore_network(snapshot)
        assert fork.engine.pending == 1
        fork.converge()
        assert fork.router("r2").best_route(PFX) is not None
        assert fork.touched == {"r2"}
        rewind_network(fork, snapshot)
        assert fork.engine.pending == 1
        assert fingerprint(fork, exact=True) == fingerprint(restore_network(snapshot), exact=True)

    def test_only_touched_routers_reload(self):
        net = BgpNetwork(seed=1, default_timing=RICH_TIMING)
        for i in range(4):
            net.add_router(f"r{i}", 100 + i)
        net.connect("r0", "r1", Relationship.PROVIDER)
        net.connect("r2", "r3", Relationship.PROVIDER)
        net.announce("r0", PFX)
        net.converge()
        snapshot = snapshot_network(net)
        fork = restore_network(snapshot)
        assert fork.touched == set()
        fork.withdraw("r0", PFX)
        fork.converge()
        # r2 and r3 never heard of the prefix: nothing entered them.
        assert fork.touched == {"r0", "r1"}
        assert rewind_network(fork, snapshot) == 2
        assert fingerprint(fork, exact=True) == fingerprint(restore_network(snapshot), exact=True)

    def test_a_suppressed_withdrawal_reloads_no_session(self, monkeypatch):
        """r1 hears PFX from its provider r0 and exports it nowhere (r2 is
        a provider too). r0's withdrawal touches r1, whose session to r2
        then sees only a withdrawal of a prefix it never advertised: it
        queues nothing, and the rewind reloads r0's session alone."""
        net = BgpNetwork(seed=5, default_timing=RICH_TIMING)
        for i in range(3):
            net.add_router(f"r{i}", 100 + i)
        net.connect("r1", "r0", Relationship.PROVIDER)
        net.connect("r1", "r2", Relationship.PROVIDER)
        net.announce("r0", PFX)
        net.converge()
        snapshot = snapshot_network(net)
        fork = restore_network(snapshot)
        fork.withdraw("r0", PFX)
        fork.converge()
        # Session.send's own suppressed branch, on top of the export's.
        fork.router("r1").sessions["r2"].send(PFX, None, cause=0)
        assert fork.touched == {"r0", "r1"}
        reloaded = []
        restore = Session.restore_transfer_state

        def counted(session, state):
            reloaded.append((session.local, session.remote))
            restore(session, state)

        monkeypatch.setattr(Session, "restore_transfer_state", counted)
        assert rewind_network(fork, snapshot) == 2
        assert reloaded == [("r0", "r1")]
        assert fingerprint(fork, exact=True) == fingerprint(restore_network(snapshot), exact=True)

    @pytest.mark.parametrize("reshape", [
        lambda net: net.fail_link("r1", "r2"),
        lambda net: (net.fail_link("r1", "r2"), net.converge(), net.restore_link("r1", "r2")),
        lambda net: net.reset_session("r1", "r2"),
        lambda net: net.set_message_loss("r1", "r2", loss_prob=0.5),
        lambda net: net.fail_node("r2"),
        lambda net: (net.add_router("r9", 109), net.connect("r9", "r2", Relationship.PROVIDER)),
        lambda net: RouteCollector("rrc", net).attach("r2"),
    ], ids=["fail-link", "restore-link", "reset-session", "message-loss", "fail-node",
            "connect", "collector-tap"])
    def test_every_change_of_shape_marks_the_network(self, reshape):
        """What a snapshot's per-router state does not hold (links,
        sessions, loss knobs, taps) makes the network restore-only."""
        fork = restore_network(snapshot_network(converged_net()))
        assert not fork.reshaped
        reshape(fork)
        assert fork.reshaped

    def test_a_reshaped_network_is_refused(self):
        net = BgpNetwork(seed=1, default_timing=RICH_TIMING)
        net.add_router("r0", 100)
        net.add_router("r1", 101)
        net.connect("r0", "r1", Relationship.PROVIDER)
        snapshot = snapshot_network(net)
        fork = restore_network(snapshot)
        assert not fork.reshaped
        fork.fail_link("r0", "r1")
        with pytest.raises(CheckpointError, match="reshaped"):
            rewind_network(fork, snapshot)

    def test_a_router_the_snapshot_lacks_is_refused(self):
        """A router added after the restore links nothing (the network
        is not reshaped), but the snapshot has no state to rewind it to."""
        net = BgpNetwork(seed=1, default_timing=RICH_TIMING)
        net.add_router("r0", 100)
        snapshot = snapshot_network(net)
        fork = restore_network(snapshot)
        fork.add_router("r9", 109)
        fork.announce("r9", PFX)
        assert not fork.reshaped
        with pytest.raises(CheckpointError, match="'r9' is not in the snapshot"):
            rewind_network(fork, snapshot)


class TestHeldFork:
    @pytest.mark.parametrize("fault", [
        {"kind": "link_flap", "at": 1.0, "a": "site:msn", "b": "uni-us-central-0",
         "down_for": 5.0},
        {"kind": "fib_delay", "at": 1.0, "node": "site:msn", "duration": 60.0,
         "extra_delay": 4.0},
    ], ids=["link-flap", "fib-delay"])
    def test_a_cell_whose_fault_plan_reshapes_restores(self, deployment, fault):
        """A link fault (or a FIB-delay window still open at the end)
        reshapes the held network: the next fork closes it and restores,
        and still equals a fresh restore."""
        experiment = FailoverExperiment(
            deployment.topology, deployment, config(), use_checkpoint=True
        )
        technique = Anycast()
        snapshot = experiment.baseline_for(technique)
        fork = HeldFork()
        network = fork.fork(snapshot)
        plan = FaultPlan.from_dict({"faults": [fault]})
        with RunRig(network, deployment, technique, "msn", fault_plan=plan):
            network.run_for(30.0)
        assert network.reshaped and fork.rewinds(snapshot) is None
        forked = fork.fork(snapshot)
        assert forked is not network and not network.routers  # closed
        fresh = restore_network(snapshot)
        assert fingerprint(forked, exact=True) == fingerprint(fresh, exact=True)
        fresh.close()
        fork.close()

    def test_a_new_telemetry_backend_restores(self, deployment):
        """Components resolved their instruments against the backend of
        their build: under another one the held fork is restored."""
        experiment = FailoverExperiment(
            deployment.topology, deployment, config(), use_checkpoint=True
        )
        snapshot = experiment.baseline_for(Anycast())
        fork = HeldFork()
        first = fork.fork(snapshot)
        first.announce("site:msn", PFX)
        assert fork.rewinds(snapshot) == len(first.touched)
        with telemetry.using(telemetry.Telemetry()):
            assert fork.rewinds(snapshot) is None
            assert fork.fork(snapshot) is not first
        fork.close()

    def test_another_snapshot_restores(self, deployment):
        experiment = FailoverExperiment(
            deployment.topology, deployment, config(), use_checkpoint=True
        )
        fork = HeldFork()
        fork.fork(experiment.baseline_for(Anycast()))
        assert fork.rewinds(experiment.baseline_for(ProactiveSuperprefix())) is None
        fork.close()


def test_cell_order_cannot_matter(deployment):
    """Every cell starts in a fresh restore's state, so a cell's result
    does not depend on which cell of its baseline ran before it."""
    sites = list(deployment.site_names[:3])

    def results(order):
        experiment = FailoverExperiment(
            deployment.topology, deployment, config(), use_checkpoint=True
        )
        with experiment.sweeping():
            return {
                site: json.dumps(
                    failover_result_to_dict(experiment.run_site(ReactiveAnycast(), site)),
                    sort_keys=True,
                )
                for site in order
            }

    assert results(sites) == results(sites[::-1])


def test_a_traced_sweep_reports_restores_and_rewinds(deployment):
    """Two baselines over three sites: one restore and two rewinds each,
    counted, tagged on the fork-restore phase and shown by both reports."""
    tracer = telemetry.TraceRecorder()
    profiler = EventProfiler()
    backend = telemetry.Telemetry(tracer=tracer, profiler=profiler)
    experiment = FailoverExperiment(
        deployment.topology, deployment, config(), use_checkpoint=True
    )
    cells = matrix([Anycast(), ReactiveAnycast()], list(deployment.site_names[:3]))
    with telemetry.using(backend):
        assert run_sweep(experiment, cells).ok
    routers = backend.counter("checkpoint.rewound_routers").value
    assert backend.counter("checkpoint.rewinds").value == 4
    assert routers > 0
    tags = [e.tags for e in tracer.events_of(telemetry.PhaseEnd) if e.name == "fork-restore"]
    assert len(tags) == 6
    assert sum(t.get("rewound", 0) for t in tags) == routers
    line = f"2 restored, 4 rewound ({routers} routers reloaded)"
    assert line in render_profile(profiler.state())
    assert line in telemetry.render_summary(telemetry.summarize_trace(tracer.events))


def test_a_rewind_reloads_only_the_sessions_that_sent(deployment, monkeypatch):
    """Each rewind of a forked testbed sweep reloads fewer sessions than
    the routers it reloads hold."""
    rewinds = []  # (sessions reloaded, sessions of the touched routers)
    restores = [0]  # session reloads so far, by restores and rewinds alike
    rewind, restore = experiment_module.rewind_network, Session.restore_transfer_state

    def counted_restore(session, state):
        restores[0] += 1
        restore(session, state)

    def counted_rewind(network, snapshot):
        held = sum(len(network.routers[n].sessions) for n in network.touched)
        before = restores[0]
        routers = rewind(network, snapshot)
        rewinds.append((restores[0] - before, held))
        return routers

    monkeypatch.setattr(Session, "restore_transfer_state", counted_restore)
    monkeypatch.setattr(experiment_module, "rewind_network", counted_rewind)
    experiment = FailoverExperiment(
        deployment.topology, deployment, config(), use_checkpoint=True
    )
    cells = matrix([Anycast(), ReactiveAnycast()], list(deployment.site_names[:3]))
    assert run_sweep(experiment, cells).ok
    assert len(rewinds) == 4
    assert all(0 < reloaded < held for reloaded, held in rewinds), rewinds
