"""The capacity model: profiles, per-run state, expected-load math, the
engine's overload accounting, and the tail-drain / dry-stream bugfixes."""

from __future__ import annotations

import json
import math

import pytest

from repro import telemetry
from repro.analysis.findings import Severity
from repro.analysis.preflight import check_capacity, check_events
from repro.core.controller import CdnController
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import Anycast, ShedPrepend, technique_by_name
from repro.dataplane.forwarding import ForwardingPlane
from repro.faults import Action
from repro.parallel import matrix, run_sweep
from repro.telemetry.trace import SiteOverloaded
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX
from repro.workload import (
    CAPACITY_SCHEMA,
    CapacityProfile,
    CapacityState,
    WorkloadAccount,
    WorkloadEngine,
    builtin_profile,
    capacity_from_dict,
    expected_site_load,
    load_capacity,
    merge_accounts,
)
from repro.workload.stream import RequestStream

from tests.conftest import FAST_TIMING, hand_chunk


def anycast_plane(deployment, seed=5):
    """A converged anycast world every client can reach."""
    network = deployment.topology.build_network(seed=seed, timing=FAST_TIMING)
    controller = CdnController(
        network=network,
        deployment=deployment,
        technique=Anycast(),
        prefix=SPECIFIC_PREFIX,
        superprefix=SUPERPREFIX,
        detection_delay=1.0,
    )
    controller.deploy("sea1")
    network.converge()
    return ForwardingPlane(network, deployment.topology), controller


class TestProfileLoading:
    def test_bare_number_is_uniform(self):
        profile = load_capacity("250")
        assert profile.default_rps == 250.0
        assert profile.site_rps == {}
        assert profile.capacity_for("anything") == 250.0

    def test_json_file_reads_to_its_profile(self, tmp_path):
        path = tmp_path / "capacity.json"
        path.write_text(json.dumps({
            "schema": CAPACITY_SCHEMA, "name": "mixed", "default_rps": None,
            "site_rps": {"sea1": 80.0},
        }), encoding="utf-8")
        loaded = load_capacity(str(path))
        assert loaded.default_rps is None
        assert loaded.site_rps == {"sea1": 80.0}
        assert loaded.capacity_for("sea1") == 80.0
        assert loaded.capacity_for("ams") is None

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            load_capacity("no/such/file.json")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'sites'"):
            capacity_from_dict({"default_rps": 10, "sites": {}})

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            capacity_from_dict({"schema": "nope/9"})


class TestCapacityState:
    def test_unlimited_by_default(self):
        state = CapacityState(CapacityProfile(name="none"), ["a", "b"])
        assert state.effective_rps("a") == math.inf

    def test_brownout_scales_and_restores(self):
        profile = CapacityProfile(name="u", default_rps=100.0)
        state = CapacityState(profile, ["a", "b"])
        state.scale("a", 0.25)
        assert state.browned_out("a")
        assert state.effective_rps("a") == pytest.approx(25.0)
        assert state.effective_rps("b") == pytest.approx(100.0)
        state.restore("a")
        assert not state.browned_out("a")
        assert state.effective_rps("a") == pytest.approx(100.0)


class TestExpectedLoad:
    def test_even_split_no_skew(self):
        profile = builtin_profile("constant")
        profile = type(profile)(name="flat", base_rps=100.0, zipf_s=0.0)
        loads = expected_site_load(
            profile, ["c1", "c2"], {"c1": "x", "c2": "y"}.get
        )
        assert loads["x"] == pytest.approx(50.0)
        assert loads["y"] == pytest.approx(50.0)

    def test_surge_region_biases_shares(self):
        profile = type(builtin_profile("constant"))(
            name="surge", base_rps=100.0, zipf_s=0.0,
            surge_region="us-east", surge_weight=3.0,
        )
        loads = expected_site_load(
            profile, ["c1", "c2"], {"c1": "x", "c2": "y"}.get,
            regions={"c1": "us-east", "c2": "eu-west"},
        )
        assert loads["x"] == pytest.approx(75.0)
        assert loads["y"] == pytest.approx(25.0)

    def test_unresolved_clients_carry_no_load(self):
        profile = type(builtin_profile("constant"))(
            name="flat", base_rps=100.0, zipf_s=0.0
        )
        loads = expected_site_load(profile, ["c1", "c2"], {"c1": "x"}.get)
        assert loads == {"x": pytest.approx(50.0)}


class TestTickBugfixes:
    def test_arrival_at_exact_duration_is_offered(self, deployment, monkeypatch):
        """Regression: the final tick's ``now - epoch`` can land a float
        residue short of the nominal duration, stranding an arrival at
        exactly ``t == duration_s``. The snap-to-duration fix offers it."""
        plane, _ = anycast_plane(deployment)
        profile = builtin_profile("constant")
        engine = WorkloadEngine(plane, deployment, profile, seed=3)
        duration = 10.0
        # The stream is a single arrival exactly at the horizon, after a
        # stretch of empty ticks.
        chunk = hand_chunk(engine, [(duration, engine.clients[0])])
        monkeypatch.setattr(RequestStream, "batches", lambda self: iter([chunk]))
        engine.start(duration)
        plane.network.run_for(duration + 1.0)
        assert engine.account.offered == 1
        assert engine._chunk is None

    def test_dry_stream_stops_ticking(self, deployment):
        """Regression: once the stream is exhausted the engine used to
        respawn no-op ticks out to the horizon."""
        plane, _ = anycast_plane(deployment)
        # ~0.02 rps over 100s: a handful of arrivals, all early with high
        # probability; tick_s=0.5 would mean 200 ticks without the fix.
        profile = type(builtin_profile("constant"))(
            name="sparse", base_rps=0.02, tick_s=0.5
        )
        engine = WorkloadEngine(plane, deployment, profile, seed=3)
        engine.start(100.0)
        plane.network.run_for(101.0)
        assert engine._chunk is None
        assert engine.account.ticks < 200

    def test_full_stream_still_ticks_to_horizon(self, deployment):
        plane, _ = anycast_plane(deployment)
        profile = type(builtin_profile("constant"))(
            name="dense", base_rps=20.0, tick_s=0.5
        )
        engine = WorkloadEngine(plane, deployment, profile, seed=3)
        engine.start(30.0)
        plane.network.run_for(31.0)
        assert engine.account.offered > 400
        assert engine.account.ticks >= 59


class TestOverloadAccounting:
    def run_engine(self, deployment, capacity, on_overload=None, seed=3):
        plane, _ = anycast_plane(deployment)
        profile = type(builtin_profile("constant"))(
            name="hot", base_rps=120.0, tick_s=0.5
        )
        state = CapacityState(capacity, deployment.site_names)
        engine = WorkloadEngine(
            plane, deployment, profile, seed=seed,
            capacity=state, on_overload=on_overload,
        )
        engine.start(20.0)
        plane.network.run_for(21.0)
        return engine

    def test_tight_capacity_loses_to_overload(self, deployment):
        engine = self.run_engine(
            deployment, CapacityProfile(name="tight", default_rps=2.0)
        )
        account = engine.account
        assert account.lost_overload > 0
        assert account.served > 0  # each site still serves its budget
        assert account.user_seconds_lost_overload == pytest.approx(
            account.lost_overload * engine.profile.think_time_s
        )
        assert "overload" in account.to_dict()["lost"]

    def test_unlimited_capacity_never_overloads(self, deployment):
        engine = self.run_engine(
            deployment, CapacityProfile(name="open", default_rps=None)
        )
        assert engine.account.lost_overload == 0
        assert engine.account.served == engine.account.offered

    def test_overload_latch_fires_once_per_site(self, deployment):
        """The engine reports every hot site on every tick; the
        controller's latch takes each site once, with one
        :class:`SiteOverloaded`, and only clearing it lets it fire again."""
        tight = CapacityProfile(name="tight", default_rps=2.0)
        reports: list[tuple[str, float]] = []
        self.run_engine(
            deployment, tight, on_overload=lambda *report: reports.append(report)
        )
        first = list(dict.fromkeys(site for site, _ in reports))
        assert first, "tight capacity must trip the latch"
        assert len(reports) > 2 * len(first)  # hot on many ticks

        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)):
            _, controller = anycast_plane(deployment)
            controller.capacity_state = CapacityState(tight, deployment.site_names)
            for site, offered_rps in reports:
                controller.site_overloaded(site, offered_rps)
            assert controller.overloaded_sites == set(first)
            site = first[0]
            controller.site_overload_cleared(site)
            assert site not in controller.overloaded_sites
            controller.site_overloaded(site, 150.0)
        latched = [e for e in tracer.events if isinstance(e, SiteOverloaded)]
        assert [e.site for e in latched] == first + [site]
        assert {e.capacity_rps for e in latched} == {2.0}
        assert latched[-1].offered_rps == 150.0
        assert controller.overloaded_sites == set(first)


class TestDeterminismUnderCapacity:
    CAPACITY = CapacityProfile(name="squeeze", default_rps=6.0)

    def make_experiment(self, deployment):
        config = FailoverConfig(
            probe_duration=50.0,
            targets_per_site=8,
            timing=FAST_TIMING,
            seed=17,
            workload=builtin_profile("constant"),
            capacity=self.CAPACITY,
        )
        return FailoverExperiment(
            deployment.topology, deployment, config, use_checkpoint=True
        )

    def test_checkpoint_fork_byte_identical(self, deployment):
        experiment = self.make_experiment(deployment)
        first = experiment.run_site(ShedPrepend(), "msn")
        second = experiment.run_site(ShedPrepend(), "msn")
        assert first.workload is not None
        assert first.workload.lost_overload > 0
        assert first.workload.to_dict() == second.workload.to_dict()

    def test_serial_vs_two_workers_byte_identical(self, deployment):
        cells = matrix([technique_by_name("shed-dns")], ["msn", "sea1"])
        serial = run_sweep(self.make_experiment(deployment), cells, workers=1)
        parallel = run_sweep(self.make_experiment(deployment), cells, workers=2)
        assert serial.ok and parallel.ok
        for a, b in zip(serial.site_results(), parallel.site_results()):
            assert a.workload.lost_overload > 0
            assert a.workload.to_dict() == b.workload.to_dict()


class TestMergeMetadata:
    def test_single_account_keeps_labels(self):
        account = WorkloadAccount(technique="anycast", site="sea1", offered=3)
        merged = merge_accounts([account])
        assert merged.technique == "anycast"
        assert merged.site == "sea1"
        assert merged.offered == 3

    def test_same_site_accounts_keep_site(self):
        merged = merge_accounts([
            WorkloadAccount(technique="anycast", site="sea1", offered=1),
            WorkloadAccount(technique="anycast", site="sea1", offered=2),
        ])
        assert merged.site == "sea1"
        assert merged.technique == "anycast"

    def test_empty_merge_is_blank(self):
        merged = merge_accounts([])
        assert merged.technique == ""
        assert merged.site == ""
        assert merged.offered == 0

    def test_overload_sums(self):
        merged = merge_accounts([
            WorkloadAccount(lost_overload=2, user_seconds_lost_overload=120.0),
            WorkloadAccount(lost_overload=3, user_seconds_lost_overload=180.0),
        ])
        assert merged.lost_overload == 5
        assert merged.user_minutes_lost_overload == pytest.approx(5.0)


class TestPreflightCapacity:
    WORKLOAD = builtin_profile("constant")

    def codes(self, findings):
        return [f.code for f in findings]

    def test_none_is_clean(self):
        assert check_capacity(None) == []

    def test_good_profile_is_clean(self, deployment):
        profile = CapacityProfile(name="ok", default_rps=500.0)
        assert check_capacity(profile, deployment, self.WORKLOAD) == []

    def test_non_positive_rates_are_errors(self):
        profile = CapacityProfile(
            name="bad", default_rps=0.0, site_rps={"sea1": -1.0}
        )
        findings = check_capacity(profile, workload=self.WORKLOAD)
        assert self.codes(findings) == ["PRE150", "PRE150"]
        assert all(f.severity == Severity.ERROR for f in findings)

    def test_nonfinite_rates_are_errors(self, deployment):
        """``nan <= 0`` and ``inf <= 0`` are both false; a NaN budget
        serves nobody and prints "capacity invariant: ok"."""
        profile = load_capacity("tests/fixtures/workload/bad_capacity_nonfinite.json")
        findings = check_capacity(profile, deployment, self.WORKLOAD)
        assert [(f.code, f.message) for f in findings] == [
            ("PRE150", "default_rps inf is not finite"),
            ("PRE150", "site_rps['msn'] nan is not finite"),
        ]
        assert self.codes(check_capacity(load_capacity("nan"))) == ["PRE150"]
        # an absent limit is still how a profile says unlimited
        assert check_capacity(CapacityProfile(name="open", site_rps={"msn": 5.0})) == []

    def test_total_below_baseline_warns(self, deployment):
        # 8 sites x 10 rps = 80 < the constant profile's 200 rps baseline.
        profile = CapacityProfile(name="tiny", default_rps=10.0)
        findings = check_capacity(profile, deployment, self.WORKLOAD)
        assert self.codes(findings) == ["PRE153"]


class TestPreflightBrownoutEvents:
    CAPACITY = CapacityProfile(name="ok", default_rps=500.0)

    def codes(self, events, deployment, capacity=CAPACITY):
        timeline = [Action(at, kind, site) for kind, site, at in events]
        return [f.code for f in check_events(timeline, capacity=capacity)]

    def test_brownout_cycle_is_clean(self, deployment):
        events = [("brownout", "sea1", 60.0), ("unbrownout", "sea1", 200.0)]
        assert self.codes(events, deployment) == []

    def test_brownout_without_capacity_warns(self, deployment):
        events = [("brownout", "sea1", 60.0), ("unbrownout", "sea1", 200.0)]
        assert self.codes(events, deployment, capacity=None) == ["PRE107"]

    def test_unbrownout_without_brownout_is_error(self, deployment):
        assert self.codes([("unbrownout", "sea1", 60.0)], deployment) == ["PRE105"]

    def test_double_brownout_warns(self, deployment):
        events = [("brownout", "sea1", 60.0), ("brownout", "sea1", 90.0)]
        assert self.codes(events, deployment) == ["PRE106"]

    def test_brownout_of_failed_site_warns(self, deployment):
        events = [("fail", "sea1", 30.0), ("brownout", "sea1", 60.0)]
        assert self.codes(events, deployment) == ["PRE106"]
