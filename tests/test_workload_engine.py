"""The workload engine end to end: loss during convergence, determinism
across repeats / checkpoint forks / worker counts, and the ledger fold."""

from __future__ import annotations

import pytest

from repro.bgp.session import SessionTiming
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import Anycast, ReactiveAnycast, technique_by_name
from repro.obs import LEDGER_SCHEMA, AvailabilityLedger, render_report
from repro.parallel import matrix, run_sweep
from repro.telemetry import Telemetry, TraceRecorder, using
from repro.telemetry.trace import read_jsonl
from repro.workload import (
    WorkloadAccount,
    builtin_profile,
    load_capacity,
    merge_accounts,
    render_account,
)

TEST_TIMING = SessionTiming(latency=0.05, jitter=0.5, mrai=10.0, busy_prob=0.3, fib_delay=1.0)

PROFILE = builtin_profile("flash-crowd")


def make_experiment(deployment, **overrides):
    config = FailoverConfig(
        probe_duration=overrides.pop("probe_duration", 90.0),
        targets_per_site=8,
        timing=TEST_TIMING,
        seed=17,
        workload=overrides.pop("workload", PROFILE),
        **overrides,
    )
    return FailoverExperiment(
        deployment.topology, deployment, config, use_checkpoint=True
    )


class TestFailoverIntegration:
    def test_convergence_loses_requests(self, deployment):
        result = make_experiment(deployment).run_site(ReactiveAnycast(), "msn")
        account = result.workload
        assert account is not None
        assert account.technique == "reactive-anycast"
        assert account.site == "msn"
        assert account.offered > 1000
        # The failure window must cost something...
        assert account.lost > 0
        # ... but the technique recovers: most requests are served.
        assert account.served > account.lost
        assert account.user_minutes_lost == pytest.approx(
            account.lost * PROFILE.think_time_s / 60.0
        )
        assert sum(account.served_by_site.values()) == account.served
        # The stream starts after the failure: the dead site never serves.
        assert "msn" not in account.served_by_site

    def test_no_workload_config_is_none(self, deployment):
        experiment = make_experiment(deployment, workload=None, probe_duration=40.0)
        result = experiment.run_site(ReactiveAnycast(), "msn")
        assert result.workload is None

    def test_checkpoint_fork_byte_identical(self, deployment):
        """Two forks of the same baseline produce identical accounts:
        workload state is outside the network snapshot by design."""
        experiment = make_experiment(deployment)
        first = experiment.run_site(ReactiveAnycast(), "msn")
        second = experiment.run_site(ReactiveAnycast(), "msn")
        assert first.workload.to_dict() == second.workload.to_dict()

    def test_serial_vs_two_workers_byte_identical(self, deployment):
        experiment = make_experiment(deployment, probe_duration=60.0)
        cells = matrix([ReactiveAnycast()], ["msn", "sea1"])
        serial = run_sweep(experiment, cells, workers=1)
        fresh = make_experiment(deployment, probe_duration=60.0)
        parallel = run_sweep(fresh, cells, workers=2)
        assert serial.ok and parallel.ok
        for a, b in zip(serial.site_results(), parallel.site_results()):
            assert a.workload.to_dict() == b.workload.to_dict()


class TestScenarioIntegration:
    def test_scenario_accounts_and_recovers(self, deployment):
        runner = ScenarioRunner(
            topology=deployment.topology,
            deployment=deployment,
            technique=technique_by_name("reactive-anycast"),
            specific_site="sea1",
            duration_s=120.0,
            timing=TEST_TIMING,
            seed=9,
            workload=PROFILE,
        )
        runner.fail(30.0, "sea1")
        report = runner.run()
        account = report.workload
        assert account is not None and account.offered > 0
        assert account.lost > 0


class TestLedgerFold:
    def test_workload_samples_fold_into_ledger(self, deployment):
        tracer = TraceRecorder()
        with using(Telemetry(tracer=tracer)):
            make_experiment(deployment, probe_duration=60.0).run_site(
                ReactiveAnycast(), "msn"
            )
        ledger = AvailabilityLedger.from_events(tracer.events)
        assert ("reactive-anycast", "msn") in ledger.workload
        payload = ledger.to_dict()
        assert payload["schema"] == LEDGER_SCHEMA
        workload = payload["workload"]["reactive-anycast"]
        assert workload["offered"] > 0
        assert workload["user_minutes_lost"] == pytest.approx(
            workload["user_seconds_lost"] / 60.0
        )
        assert "msn" in workload["sites"]
        text = render_report(ledger)
        assert "workload (requests):" in text
        assert "user-min lost" in text

    def test_the_ledger_books_the_runs_own_rows(self, deployment, tmp_path):
        """Read back from JSONL, a two-worker sweep's trace gives the
        ledger, per ⟨technique, site⟩, the very row each cell accounted
        (overload and the served-by-site spread included), and a
        technique's row is its cells' rows merged -- in the JSON and in
        the text table alike."""
        experiment = make_experiment(
            deployment, probe_duration=60.0, capacity=load_capacity("40")
        )
        cells = matrix([Anycast(), ReactiveAnycast()], ["msn", "sea1"])
        tracer = TraceRecorder()
        with using(Telemetry(tracer=tracer)):
            report = run_sweep(experiment, cells, workers=2)
        assert report.ok
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        ledger = AvailabilityLedger.from_events(read_jsonl(path))
        accounts = {(r.technique, r.site): r.workload for r in report.site_results()}
        assert all(account.lost_overload for account in accounts.values())
        assert {key: row.to_dict() for key, row in ledger.workload.items()} == {
            key: account.to_dict() for key, account in accounts.items()
        }
        payload = ledger.to_dict()["workload"]
        text = render_report(ledger)
        for name in ("anycast", "reactive-anycast"):
            merged = merge_accounts(accounts[name, site] for site in ("msn", "sea1"))
            assert {k: v for k, v in payload[name].items() if k != "sites"} == merged.to_dict()
            assert f"{name:26s} {merged.offered:10d} {merged.served:10d}" in text

    def test_ledger_without_workload_unchanged(self):
        payload = AvailabilityLedger.from_events([]).to_dict()
        assert "workload" not in payload
        assert "workload" not in render_report(AvailabilityLedger())


class TestAccounts:
    def test_merge_sums_and_pools(self):
        a = WorkloadAccount(
            technique="anycast", site="sea1", offered=10, served=8,
            lost_blackhole=2, user_seconds_lost=120.0,
            served_by_site={"msn": 8},
        )
        b = WorkloadAccount(
            technique="anycast", site="ams", offered=5, served=5,
            served_by_site={"msn": 2, "ath": 3},
        )
        merged = merge_accounts([a, b])
        assert merged.technique == "anycast"
        assert merged.site == "*"
        assert merged.offered == 15
        assert merged.served == 13
        assert merged.lost == 2
        assert merged.user_minutes_lost == pytest.approx(2.0)
        assert merged.served_by_site == {"msn": 10, "ath": 3}

    def test_merge_mixed_techniques_pools(self):
        merged = merge_accounts([
            WorkloadAccount(technique="a"), WorkloadAccount(technique="b"),
        ])
        assert merged.technique == "pooled"

    def test_render_is_greppable(self):
        account = WorkloadAccount(
            offered=100, served=90, lost_blackhole=10, user_seconds_lost=600.0
        )
        line = render_account(account)
        assert line.startswith("workload: 100 requests offered")
        assert "10 lost (10.0%)" in line
        assert "10.0 user-minutes lost" in line

    def test_loss_frac_empty_account(self):
        assert WorkloadAccount().loss_frac == 0.0
