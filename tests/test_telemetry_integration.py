"""End-to-end telemetry: a small failover run must leave a causally
ordered trace (SiteFailed -> BgpUpdateSent -> ProbeReply) and populated
counters behind."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core import experiment as experiment_module
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import technique_by_name
from repro.parallel import matrix, run_sweep
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment

from tests.conftest import counter_values

SMALL = FailoverConfig(probe_duration=60.0, targets_per_site=5, seed=42)


@pytest.fixture(scope="module")
def traced_run():
    deployment = build_deployment(params=TopologyParams(seed=42))
    experiment = FailoverExperiment(deployment.topology, deployment, SMALL)
    tracer = telemetry.TraceRecorder()
    active = telemetry.Telemetry(tracer=tracer)
    with telemetry.using(active):
        result = experiment.run_site(technique_by_name("anycast"), "msn")
    return active, tracer, result


def test_failure_withdrawal_reply_causal_order(traced_run):
    _, tracer, _ = traced_run
    events = tracer.events

    failed_idx = next(
        i for i, e in enumerate(events) if isinstance(e, telemetry.SiteFailed)
    )
    withdraw_idx = next(
        i for i, e in enumerate(events)
        if isinstance(e, telemetry.BgpUpdateSent) and e.update == "withdraw"
        and i > failed_idx
    )
    reply_idx = next(
        i for i, e in enumerate(events)
        if isinstance(e, telemetry.ProbeReply) and i > withdraw_idx
    )
    assert failed_idx < withdraw_idx < reply_idx

    failed = events[failed_idx]
    assert failed.site == "msn"
    # Simulated time must be non-decreasing along the causal chain.
    assert failed.t <= events[withdraw_idx].t <= events[reply_idx].t


def test_counters_populated(traced_run):
    active, _, result = traced_run
    counters = counter_values(active)
    assert counters["bgp.updates_sent"] > 0
    assert counters["bgp.updates_received"] > 0
    assert counters["bgp.fib_installs"] > 0
    assert counters["controller.site_failures"] == 1
    assert counters["probe.sent"] > 0
    assert counters["probe.replies"] > 0
    assert counters["engine.events_processed"] > 0
    # Every probe is accounted for: replies + losses == sent.
    assert counters["probe.replies"] + counters.get("probe.replies_lost", 0) == counters["probe.sent"]
    assert result.outcomes  # the run itself produced measurements


def test_phases_cover_the_protocol(traced_run):
    active, tracer, _ = traced_run
    starts = {e.name for e in tracer.events_of(telemetry.PhaseStart)}
    ends = {e.name: e for e in tracer.events_of(telemetry.PhaseEnd)}
    expected = {"deploy-converge", "select-targets", "fail-probe", "analyze"}
    assert expected <= starts
    assert expected <= set(ends)
    counters = counter_values(active)
    for name in expected:
        tags = dict(ends[name].tags)
        if name == "fail-probe":
            # The probing phase ends with its replies split by who wrote
            # them: a landing event or a windowed pass.
            flown, quiet = tags.pop("flown"), tags.pop("quiet")
            assert quiet == counters["probe.quiet"] > 0
            assert flown + quiet == counters["probe.replies"] + counters["probe.replies_lost"]
        assert tags == {"technique": "anycast", "site": "msn"}
        assert ends[name].wall_s >= 0.0
    # The probing phase spans the configured simulated window.
    assert ends["fail-probe"].sim_s >= SMALL.probe_duration


def test_trace_round_trips_through_jsonl(traced_run, tmp_path):
    _, tracer, _ = traced_run
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    assert telemetry.read_jsonl(path) == tracer.events
    summary = telemetry.summarize_trace(tracer.events)
    assert summary.total_events == len(tracer.events)
    assert summary.site_failures[0][1] == "msn"
    assert summary.updates_by_type.get("withdraw", 0) > 0


def test_disabled_runs_leave_no_trace(traced_run):
    # Outside `using`, the module-level NULL backend is active again and
    # instrumented components stay inert.
    assert telemetry.current() is telemetry.NULL
    deployment = build_deployment(params=TopologyParams(seed=42))
    experiment = FailoverExperiment(deployment.topology, deployment, SMALL)
    result = experiment.run_site(technique_by_name("anycast"), "msn")
    assert result.outcomes


def test_a_phase_counts_sim_time_on_the_network_it_ended_on(monkeypatch):
    """A three-cell serial sweep of one baseline: one restore, then two
    rewinds. Each ``fork-restore`` counts only the delta converge on its
    fork (the baseline's clock is not added in), and the second
    ``baseline-converge`` none of the first one's network."""
    deployment = build_deployment(params=TopologyParams(seed=42))
    config = FailoverConfig(probe_duration=30.0, targets_per_site=3, seed=42)
    experiment = FailoverExperiment(deployment.topology, deployment, config, use_checkpoint=True)
    converged_at: list[float] = []

    class Rig(experiment_module.RunRig):
        def __init__(self, network, *args, **kwargs):
            super().__init__(network, *args, **kwargs)
            converged_at.append(network.now)  # the delta converge is done

    monkeypatch.setattr(experiment_module, "RunRig", Rig)
    technique = technique_by_name("proactive-superprefix")
    tracer = telemetry.TraceRecorder()
    with telemetry.using(telemetry.Telemetry(tracer=tracer)):
        assert run_sweep(experiment, matrix([technique], ["msn", "sea1", "ams"])).ok
        experiment._baselines.clear()
        baseline = experiment.baseline_for(technique)
    ends = tracer.events_of(telemetry.PhaseEnd)
    forks = [end for end in ends if end.name == "fork-restore"]
    assert ["rewound" in end.tags for end in forks] == [False, True, True]
    assert [end.sim_s for end in forks] == [at - baseline.now for at in converged_at]
    assert all(end.sim_s > 0.0 for end in forks)
    converges = [end for end in ends if end.name == "baseline-converge"]
    assert [end.sim_s for end in converges] == [baseline.now, baseline.now]
