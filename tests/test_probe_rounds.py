"""Probing in rounds, with windowed passes, against the per-target ticks.

The prober sends one round event per interval. A round that finds a
window -- the span before anything but its own replies' landings could
run: up to the run's deadline once nothing else is queued, or up to the
queue head when no landing is queued at all -- writes every round and
reply inside it in one pass, per target, and replays their trace events.
Each test drives the same run with that prober and with
:class:`tests.probe_oracle.TickProber` (a tick per target, every reply
its own landing) and asserts they leave the same observable state: the
probe records, the plane's drop total, the full trace event list, and
the counters -- all but the engine's event counts and ``probe.quiet``,
which count the event structure itself. Trace events differ only in host
wall time and in the probing phase's ``flown`` / ``quiet`` end tags, for
the same reason. Untraced runs are held to the oracle's records too,
since a pass reports nothing there, and foreign events put exactly on a
round instant and on a reply's landing test both ends of a window.

Every test also checks that a pass ran, so none of them can pass
vacuously.
"""

import math
from dataclasses import dataclass, replace

import pytest

from repro import telemetry
from repro.core import experiment as experiment_module
from repro.core import rig as rig_module
from repro.core import scenarios as scenarios_module
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.metrics import outcomes_for_run
from repro.core.rig import RunRig
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import (
    Anycast,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
)
from repro.dataplane.ping import Prober
from repro.obs.profiler import EventProfiler, render_profile
from repro.parallel import matrix, run_sweep
from repro.topology.testbed import SPECIFIC_PREFIX

from tests.conftest import counter_values, install_fib, web_clients
from tests.probe_oracle import TickProber

#: the roster ``repro compare`` runs by default
COMPARE = [Anycast(), ReactiveAnycast(), ProactivePrepending(3), ProactiveSuperprefix()]

#: tags that count the event structure, not the simulation
STRUCTURE_TAGS = ("flown", "quiet")


@dataclass
class Observed:
    """Everything a run leaves that the prober's design must not move."""

    records: dict
    events: list
    counters: dict
    #: replies a pass wrote (0 for the oracle)
    quiet: int


def observe(rig, tracer, active) -> Observed:
    events = []
    for event in tracer.events if tracer is not None else ():
        if hasattr(event, "wall_s"):
            event = replace(event, wall_s=0.0)
        if hasattr(event, "tags"):
            tags = {k: v for k, v in event.tags.items() if k not in STRUCTURE_TAGS}
            event = replace(event, tags=tags)
        events.append(event)
    counters = {
        name: value for name, value in counter_values(active).items()
        if not name.startswith("engine.") and name != "probe.quiet"
    } if tracer is not None else {}
    return Observed(
        records={target: (log.request_latency, log.probes) for target, log in rig.prober.logs.items()},
        events=events,
        counters=counters,
        quiet=rig.prober.quiet,
    )


def assert_same(new: Observed, oracle: Observed) -> None:
    assert new.records == oracle.records
    assert new.events == oracle.events
    assert new.counters == oracle.counters
    assert oracle.quiet == 0


def traced(monkeypatch, prober_class, drive, trace=True):
    """``drive()`` under a fresh traced telemetry (the disabled backend
    with ``trace=False``), every rig built with ``prober_class``; ⟨what
    ``drive`` returned, the run's one rig, :class:`Observed`⟩."""
    rigs = []

    class KeptRig(RunRig):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rigs.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(rig_module, "Prober", prober_class)
        patch.setattr(experiment_module, "RunRig", KeptRig)
        patch.setattr(scenarios_module, "RunRig", KeptRig)
        tracer = telemetry.TraceRecorder() if trace else None
        backend = telemetry.Telemetry(tracer=tracer) if trace else telemetry.NULL
        with telemetry.using(backend) as active:
            value = drive(KeptRig)
    (rig,) = rigs
    return value, rig, observe(rig, tracer, active)


def run_cell(monkeypatch, prober_class, deployment, technique, site, trace=True, **config):
    def drive(_):
        experiment = FailoverExperiment(
            deployment.topology, deployment, FailoverConfig(**config), use_checkpoint=True
        )
        return experiment.run_site(technique, site)

    return traced(monkeypatch, prober_class, drive, trace)


def client_targets(deployment, count):
    """The first ``count`` web-client ASes' target addresses."""
    return {
        info.prefix.address(1): info.node_id
        for info in deployment.topology.web_client_ases()[:count]
    }


@pytest.mark.parametrize("technique", COMPARE, ids=lambda technique: technique.name)
def test_every_compare_cell_matches_the_tick_prober(monkeypatch, deployment, technique):
    quiet = 0
    for site in deployment.site_names:
        results = []
        for prober_class in (Prober, TickProber):
            result, rig, observed = run_cell(
                monkeypatch, prober_class, deployment, technique, site,
                probe_duration=240.0, targets_per_site=40,
            )
            results.append((result, observed))
            assert result.outcomes == outcomes_for_run(
                rig.prober.logs, site, result.withdrawal_time
            )
        (new, new_observed), (oracle, oracle_observed) = results
        assert new.outcomes == oracle.outcomes
        assert_same(new_observed, oracle_observed)
        quiet += new_observed.quiet
    assert quiet > 0


@pytest.mark.parametrize("technique", COMPARE, ids=lambda technique: technique.name)
def test_untraced_compare_cells_match_the_tick_prober(monkeypatch, deployment, technique):
    """The untimed path: with telemetry off a pass replays nothing, so
    only its records show -- and they must be the oracle's."""
    quiet = 0
    for site in deployment.site_names:
        (new, _, new_observed), (oracle, _, oracle_observed) = [
            run_cell(
                monkeypatch, prober_class, deployment, technique, site, trace=False,
                probe_duration=240.0, targets_per_site=40,
            )
            for prober_class in (Prober, TickProber)
        ]
        assert new.outcomes == oracle.outcomes
        assert_same(new_observed, oracle_observed)
        quiet += new_observed.quiet
    assert quiet > 0


def test_a_window_run_in_two_parts_with_a_link_failure_between(monkeypatch, deployment):
    targets = client_targets(deployment, 12)

    def drive(rig_class):
        network = deployment.topology.build_network(seed=5)
        rig = rig_class(network, deployment, Anycast(), "sea1")
        rig.controller.fail_site("msn")
        rig.prober.start(targets, interval=1.5, duration=200.0)
        # The first run ends just after a round: its replies are in the air.
        network.run_for(99.01)
        before = (rig.prober.quiet, rig.plane.in_air)
        # Cut the first link of the longest reply path.
        walks = [rig.plane.walk_from(node, rig.dst).path for node in targets.values()]
        path = max(walks, key=len)
        network.fail_link(path[0], path[1])
        network.run_for(150.0)
        return before

    runs = [traced(monkeypatch, prober_class, drive) for prober_class in (Prober, TickProber)]
    ((quiet, in_air), _, new), (_, _, oracle) = runs
    assert quiet > 0 and in_air > 0
    assert_same(new, oracle)


def test_run_until_idle_probes_the_whole_window(monkeypatch, deployment):
    targets = client_targets(deployment, 12)

    def drive(rig_class):
        network = deployment.topology.build_network(seed=5)
        rig = rig_class(network, deployment, ReactiveAnycast(), "sea1")
        rig.controller.fail_site("sea1")
        rig.prober.start(targets, interval=1.5, duration=120.0)
        network.engine.run_until_idle()

    runs = [traced(monkeypatch, prober_class, drive) for prober_class in (Prober, TickProber)]
    (_, rig, new), (_, _, oracle) = runs
    assert_same(new, oracle)
    assert new.quiet > 0
    assert rig.plane.in_air == 0 and rig.network.engine.pending == 0


def test_a_scenario_run_matches_the_tick_prober(monkeypatch, deployment):
    def drive(_):
        runner = ScenarioRunner(
            deployment.topology, deployment, Anycast(), "msn",
            duration_s=150.0, seed=2, target_nodes=web_clients(deployment.topology, 10),
        )
        runner.fail(20.0, "msn")
        return runner.run()

    runs = [traced(monkeypatch, prober_class, drive) for prober_class in (Prober, TickProber)]
    (new_report, _, new), (oracle_report, _, oracle) = runs
    assert new_report.buckets == oracle_report.buckets
    assert_same(new, oracle)
    assert new.quiet > 0


class WatchedProber(Prober):
    """Notes, at the start of each pass, how many landing events are
    queued, how many of this prober's replies are in the air, the last
    instant the pass may write up to and the run's deadline."""

    def _pass(self, targets, interval, stop_at, until) -> None:
        self.watched = getattr(self, "watched", [])
        self.watched.append(
            (self.plane.queued_landings, self.plane.in_air, until, self.plane.network.engine.deadline)
        )
        super()._pass(targets, interval, stop_at, until)
        # The seq of each reply in the air, in the plane's flight order.
        seq_of = {id(flight): probe.seq for flight, _, probe in self._flights.values()}
        self.aloft = getattr(self, "aloft", [])
        self.aloft.append([seq_of[id(flight)] for flight in self.plane._flights])


def test_a_quiet_pass_that_starts_with_a_stale_landing_queued(monkeypatch, deployment):
    """Replies outlive the 10 ms round, so a FIB write that shortens one
    mid-flight leaves its old landing queued (stale) past the next
    round; the pass takes over the flights in the air and the stale
    event stays harmless."""
    targets = client_targets(deployment, 6)

    def drive(rig_class):
        network = deployment.topology.build_network(seed=5)
        rig = rig_class(network, deployment, Anycast(), "sea1")
        path = max(
            (rig.plane.walk_from(node, rig.dst).path for node in targets.values()), key=len
        )
        rig.prober.start(targets, interval=0.01, duration=0.5)
        # The reply path's second node now delivers locally (off-net).
        network.engine.schedule(
            0.045, lambda: install_fib(network, path[1], SPECIFIC_PREFIX, path[1])
        )
        network.run_for(2.0)

    runs = [
        traced(monkeypatch, prober_class, drive) for prober_class in (WatchedProber, TickProber)
    ]
    (_, rig, new), (_, _, oracle) = runs
    assert_same(new, oracle)
    # The first pass that found replies in the air.
    queued, in_air, _, _ = next(watch for watch in rig.prober.watched if watch[1])
    assert queued > in_air  # a stale landing was queued when the pass began
    assert in_air > 0  # and replies were in the air for it to take over
    assert any(p.reason == "off-net" for log in rig.prober.logs.values() for p in log.probes)


@pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("edge", ["round", "landing"])
def test_a_foreign_event_on_the_edge_of_a_window(monkeypatch, deployment, edge, trace):
    """A no-op foreign event queued before probing starts, exactly at a
    round instant or exactly at a reply's landing, ends the window: it
    holds the lower sequence number, so the round (or the landing) at
    its instant must come after it. Traced, the event leaves a marker in
    the trace, so the order itself is compared."""
    targets = client_targets(deployment, 8)
    at = []

    def drive(rig_class):
        network = deployment.topology.build_network(seed=5)
        rig = rig_class(network, deployment, Anycast(), "sea1")
        network.converge()
        engine = network.engine
        instant = engine.now
        for _ in range(7):
            instant += 1.5
        if edge == "landing":
            # The landing of the first target's reply to the round sent
            # then, by the flight's own float additions.
            node = next(iter(targets.values()))
            vantage = deployment.site_node(rig.prober.vantage_site)
            instant += rig.plane.latency_to_client(vantage, node)
            for hop in rig.plane.hop_latencies(rig.plane.walk_from(node, rig.dst)):
                instant += hop
        at.append(instant)
        engine.schedule_at(
            instant, lambda: telemetry.current().emit(telemetry.TraceEvent(t=engine.now))
        )
        rig.prober.start(targets, interval=1.5, duration=30.0)
        network.run_for(40.0)

    runs = [
        traced(monkeypatch, prober_class, drive, trace)
        for prober_class in (WatchedProber, TickProber)
    ]
    (_, rig, new), (_, _, oracle) = runs
    assert_same(new, oracle)
    (instant, _) = at
    # The first pass ended just before the foreign event.
    _, _, until, deadline = rig.prober.watched[0]
    assert until < instant < deadline
    assert new.quiet > 0
    if trace:
        marker = next(i for i, e in enumerate(new.events) if type(e) is telemetry.TraceEvent)
        after = new.events[marker + 1]
        assert after.t == instant
        assert isinstance(after, telemetry.ProbeSent if edge == "round" else telemetry.ProbeReply)


@pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
def test_replies_past_a_window_fly_in_send_order(monkeypatch, deployment, trace):
    """Replies outlive rounds 10 ms apart, so a window cut by a foreign
    event leaves replies of several rounds to fly: they go into the air
    round by round, in seq order, as the rounds' events would have
    launched them. Probing starts inside the run, so its first round
    finds no landing queued and takes the window up to the event."""
    targets = client_targets(deployment, 6)

    def drive(rig_class):
        network = deployment.topology.build_network(seed=5)
        rig = rig_class(network, deployment, Anycast(), "sea1")
        network.converge()
        for delay in (0.2, 0.45):
            network.engine.schedule(delay, lambda: None)
        network.engine.schedule(
            0.0, lambda: rig.prober.start(targets, interval=0.01, duration=0.6)
        )
        network.run_for(2.0)

    runs = [
        traced(monkeypatch, prober_class, drive, trace)
        for prober_class in (WatchedProber, TickProber)
    ]
    (_, rig, new), (_, _, oracle) = runs
    assert_same(new, oracle)
    assert new.quiet > 0
    rounds_aloft = [
        {(seq - 1) // len(targets) for seq in seqs} for seqs in rig.prober.aloft
    ]
    assert max(len(rounds) for rounds in rounds_aloft) > 1
    assert all(seqs == sorted(seqs) for seqs in rig.prober.aloft)


def test_a_reply_landing_on_a_round_instant_comes_before_its_sends(monkeypatch, deployment):
    """The interval is set so the first target's reply to the first
    round lands exactly on the second round's instant: its landing event
    was queued first, so the pass reports it before that round's
    sends."""
    targets = client_targets(deployment, 4)

    def drive(rig_class):
        network = deployment.topology.build_network(seed=5)
        rig = rig_class(network, deployment, Anycast(), "sea1")
        network.converge()
        start = network.engine.now
        node = next(iter(targets.values()))
        vantage = deployment.site_node(rig.prober.vantage_site)
        lands_at = start + rig.plane.latency_to_client(vantage, node)
        for hop in rig.plane.hop_latencies(rig.plane.walk_from(node, rig.dst)):
            lands_at += hop
        interval = lands_at - start
        while start + interval != lands_at:
            interval = math.nextafter(interval, math.inf if start + interval < lands_at else 0.0)
        rig.prober.start(targets, interval=interval, duration=20 * interval)
        network.run_for(1.0)
        return lands_at

    runs = [traced(monkeypatch, prober_class, drive) for prober_class in (Prober, TickProber)]
    (lands_at, _, new), (_, _, oracle) = runs
    assert_same(new, oracle)
    assert new.quiet > 0
    at_once = [
        e for e in new.events
        if isinstance(e, (telemetry.ProbeSent, telemetry.ProbeReply)) and e.t == lands_at
    ]
    assert isinstance(at_once[0], telemetry.ProbeReply) and at_once[0].seq == 1
    assert isinstance(at_once[1], telemetry.ProbeSent)


def test_a_forked_superprefix_cell_ends_passes_before_the_deadline(monkeypatch, deployment):
    """Between BGP bursts a round takes the window up to the next queued
    event, so some pass ends before the run's deadline. A change that
    silently drops that window, and waits for a queue of nothing but
    landings, fails here."""
    _, rig, _ = run_cell(
        monkeypatch, WatchedProber, deployment, ProactiveSuperprefix(), "sea1", trace=False,
        probe_duration=120.0, targets_per_site=10,
    )
    assert any(until < deadline for _, _, until, deadline in rig.prober.watched)


def test_a_settled_anycast_cell_takes_the_quiet_pass(deployment):
    """A change that silently disables the pass on a quiet network
    fails here."""
    with telemetry.using(telemetry.Telemetry()) as active:
        FailoverExperiment(
            deployment.topology, deployment,
            FailoverConfig(probe_duration=60.0, targets_per_site=10),
            use_checkpoint=True,
        ).run_site(Anycast(), "msn")
    counters = counter_values(active)
    assert counters["probe.quiet"] > 0
    assert counters["probe.quiet"] <= counters["probe.replies"] + counters["probe.replies_lost"]


def test_a_traced_sweep_reports_flown_and_quiet_replies(deployment):
    """The fail-probe phase ends tagged with its replies split by who
    wrote them; ``repro profile`` and ``trace summarize`` print the sum
    under the phase's row, and profiles from two workers add up."""
    tracer = telemetry.TraceRecorder()
    profiler = EventProfiler()
    backend = telemetry.Telemetry(tracer=tracer, profiler=profiler)
    experiment = FailoverExperiment(
        deployment.topology, deployment,
        FailoverConfig(probe_duration=60.0, targets_per_site=10), use_checkpoint=True,
    )
    cells = matrix([Anycast(), ReactiveAnycast()], ["msn", "sea1"])
    with telemetry.using(backend):
        assert run_sweep(experiment, cells).ok
    counters = counter_values(backend)
    tags = [e.tags for e in tracer.events_of(telemetry.PhaseEnd) if e.name == "fail-probe"]
    quiet = sum(t["quiet"] for t in tags)
    flown = sum(t["flown"] for t in tags)
    assert len(tags) == 4 and quiet == counters["probe.quiet"] > 0
    assert flown + quiet == counters["probe.replies"] + counters["probe.replies_lost"]
    line = f"    {flown} replies flown, {quiet} quiet"
    assert line in render_profile(profiler.state()).splitlines()
    assert line in telemetry.render_summary(telemetry.summarize_trace(tracer.events)).splitlines()
    merged = EventProfiler()
    merged.merge_state(profiler.state())
    merged.merge_state(profiler.state())
    assert f"    {2 * flown} replies flown, {2 * quiet} quiet" in render_profile(merged.state())


class TestRefusedWindows:
    """A probing interval that cannot advance the clock livelocked
    ``run_site`` (0) or censored every target (NaN); an empty window
    returned no outcomes. Each is refused up front."""

    @pytest.mark.parametrize("interval", [0.0, -1.5, float("nan"), float("inf"), 1e-300])
    def test_prober_refuses_an_interval_that_cannot_advance(self, deployment, interval):
        network = deployment.topology.build_network(seed=5)
        rig = RunRig(network, deployment, Anycast(), "sea1")
        pending = network.engine.pending
        with pytest.raises(ValueError, match="probe interval"):
            rig.prober.start(client_targets(deployment, 2), interval=interval, duration=30.0)
        # Refused before anything was sent or scheduled.
        assert network.engine.pending == pending and not rig.prober.logs

    def test_run_site_refuses_an_interval_too_small_to_move_the_clock(self, deployment):
        """``FailoverConfig`` takes any interval above 0; 1e-300 added to
        any instant of the window leaves it unchanged, so every round
        would be rescheduled at one instant forever."""
        experiment = FailoverExperiment(
            deployment.topology, deployment,
            FailoverConfig(probe_interval=1e-300, probe_duration=30.0, targets_per_site=2),
            use_checkpoint=True,
        )
        with pytest.raises(ValueError, match="probe interval"):
            experiment.run_site(Anycast(), "sea1")

    def test_prober_refuses_a_nan_duration(self, deployment):
        """No clock reading passes a NaN stop time: the ticks probed until
        the run's deadline, whatever the window."""
        network = deployment.topology.build_network(seed=5)
        rig = RunRig(network, deployment, Anycast(), "sea1")
        with pytest.raises(ValueError, match="duration"):
            rig.prober.start(client_targets(deployment, 2), interval=1.5, duration=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("probe_interval", 0.0),
        ("probe_interval", -1.0),
        ("probe_interval", float("nan")),
        ("probe_interval", float("inf")),
        ("probe_duration", 0.0),
        ("probe_duration", -1.0),
        ("probe_duration", float("nan")),
        ("probe_duration", float("inf")),
    ])
    def test_failover_config_refuses(self, field, value):
        with pytest.raises(ValueError, match=field):
            FailoverConfig(**{field: value})
