"""Checkpoint-forked failover runs: determinism, reuse, and phases.

The sweep's hot path converges each technique's base announcement plan
once, snapshots it, and forks the snapshot per cell
(``FailoverExperiment.baseline_for``, ``use_checkpoint=True``). These
tests pin the contract: forked runs are reproducible across
experiments and worker counts, baselines are computed once per
technique, and the legacy cold-start path stays the default for library
users.
"""

import json

import pytest

from repro import telemetry
from repro.checkpoint import NetworkSnapshot, restore_network
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import (
    Anycast,
    ProactivePrepending,
    ReactiveAnycast,
    technique_by_name,
)
from repro.measurement.export import sweep_report_to_dict
from repro.parallel import matrix, run_sweep
from repro.bgp.session import SessionTiming

#: Mild pacing (mirrors test_core_experiment.TEST_TIMING): enough
#: dynamics to exercise MRAI/jitter state through the snapshot.
TIMING = SessionTiming(latency=0.05, jitter=0.5, mrai=10.0, busy_prob=0.3, fib_delay=1.0)


def make_config() -> FailoverConfig:
    return FailoverConfig(
        probe_duration=120.0, targets_per_site=6, timing=TIMING, seed=13
    )


def make_experiment(deployment, **kwargs) -> FailoverExperiment:
    return FailoverExperiment(
        deployment.topology, deployment, make_config(), **kwargs
    )


def canonical(report) -> str:
    doc = sweep_report_to_dict(report)
    doc.pop("wall_s")
    doc.pop("workers")
    for cell in doc["cells"]:
        cell.pop("wall_s")
    return json.dumps(doc, sort_keys=True)


def phase_names(tracer) -> list[str]:
    return [e.name for e in tracer.events_of(telemetry.PhaseStart)]


class TestBaselineCache:
    def test_baseline_computed_once_per_technique(self, deployment):
        experiment = make_experiment(deployment, use_checkpoint=True)
        technique = Anycast()
        first = experiment.baseline_for(technique)
        assert isinstance(first, NetworkSnapshot)
        assert experiment.baseline_for(technique) is first
        assert experiment.cached_baselines() == {technique.baseline_key: first}

    def test_baseline_reproducible_across_experiments(self, deployment):
        a = make_experiment(deployment, use_checkpoint=True)
        b = make_experiment(deployment, use_checkpoint=True)
        assert (
            a.baseline_for(Anycast()).dumps() == b.baseline_for(Anycast()).dumps()
        )

    def test_baselines_share_one_copy_of_the_topology_tables(self, deployment):
        """Every baseline comes from one topology, so the cache keeps its
        adjacency and link tables once. Each baseline still dumps as it
        does alone, and a restore writes only to copies of them."""
        experiment = make_experiment(deployment, use_checkpoint=True)
        first = experiment.baseline_for(Anycast())
        second = experiment.baseline_for(ProactivePrepending())
        for name in ("adjacency", "link_latency", "link_timing", "link_loss"):
            assert getattr(second, name) is getattr(first, name)
        alone = make_experiment(deployment, use_checkpoint=True).baseline_for(
            ProactivePrepending()
        )
        assert second.dumps() == alone.dumps()
        with restore_network(second) as network:
            node, neighbors = next(iter(network.adjacency.items()))
            assert neighbors == first.adjacency[node]
            assert neighbors is not first.adjacency[node]
            assert network.link_latency is not first.link_latency

    def test_prepending_baseline_key_tracks_restriction(self):
        assert Anycast().baseline_key == "anycast"
        assert (
            ProactivePrepending().baseline_key
            != ProactivePrepending(restrict_to_shared_neighbors=True).baseline_key
        )


class TestForkedRunDeterminism:
    def test_forked_run_reproducible_across_experiments(self, deployment):
        site = deployment.site_names[0]
        results = []
        for _ in range(2):
            experiment = make_experiment(deployment, use_checkpoint=True)
            result = experiment.run_site(ReactiveAnycast(), site)
            results.append(
                (
                    result.withdrawal_time,
                    sorted(map(str, result.controllable)),
                    [
                        (str(o.target), o.reconnection_s, o.failover_s, o.final_site)
                        for o in result.outcomes
                    ],
                )
            )
        assert results[0] == results[1]

    def test_forked_sweep_serial_vs_workers_identical(self, deployment):
        techniques = [technique_by_name("anycast"), technique_by_name("reactive-anycast")]
        sites = deployment.site_names[:2]
        cells = matrix(techniques, sites)
        serial = run_sweep(
            make_experiment(deployment, use_checkpoint=True), cells, workers=1
        )
        parallel = run_sweep(
            make_experiment(deployment, use_checkpoint=True), cells, workers=2
        )
        assert serial.ok and parallel.ok
        assert canonical(serial) == canonical(parallel)

    def test_fork_and_legacy_reach_same_control(self, deployment):
        """The base/delta decomposition invariant: forked deployment
        reaches the same pre-failure controllable set as the legacy
        cold-start deploy."""
        site = deployment.site_names[0]
        for name in ("anycast", "proactive-superprefix", "combined"):
            technique = technique_by_name(name)
            legacy = make_experiment(deployment).run_site(technique, site)
            forked = make_experiment(deployment, use_checkpoint=True).run_site(
                technique, site
            )
            assert set(forked.controllable) == set(legacy.controllable), name
            assert forked.controllable_frac == legacy.controllable_frac


class TestPhasesAndDefaults:
    def test_library_default_is_legacy_cold_start(self, deployment):
        experiment = make_experiment(deployment)
        assert experiment.use_checkpoint is False
        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)):
            experiment.run_site(Anycast(), deployment.site_names[0])
        names = phase_names(tracer)
        assert "deploy-converge" in names
        assert "baseline-converge" not in names
        assert "fork-restore" not in names

    def test_checkpoint_run_emits_fork_phases(self, deployment):
        experiment = make_experiment(deployment, use_checkpoint=True)
        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)):
            for site in deployment.site_names[:2]:
                experiment.run_site(Anycast(), site)
        names = phase_names(tracer)
        assert names.count("baseline-converge") == 1  # shared by both cells
        assert names.count("fork-restore") == 2
        assert "deploy-converge" not in names

    def test_sweep_precomputes_baselines_in_parent(self, deployment):
        from repro.parallel.sweep import shared_state

        techniques = [technique_by_name("anycast"), technique_by_name("combined")]
        cells = matrix(techniques, deployment.site_names[:2])
        experiment = make_experiment(deployment, use_checkpoint=True)
        shared = shared_state(experiment, cells)
        assert shared.use_checkpoint is True
        assert sorted(shared.cached_baselines()) == sorted(t.baseline_key for t in techniques)

    def test_legacy_sweep_ships_no_baselines(self, deployment):
        from repro.parallel.sweep import shared_state

        cells = matrix([technique_by_name("anycast")], deployment.site_names[:1])
        shared = shared_state(make_experiment(deployment), cells)
        assert shared.use_checkpoint is False
        assert shared.cached_baselines() == {}
