"""Availability ledger: outage intervals, classification, determinism.

Unit tests drive :class:`AvailabilityLedger` with synthetic probe
streams; the equality test runs the same sweep serially and with two
workers and asserts the ledger JSON is byte-identical -- the property
``repro report`` relies on when traces come from ``--workers N`` runs.
"""

from __future__ import annotations

import json

import pytest

from repro.bgp.session import SessionTiming
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import Anycast, ReactiveAnycast
from repro.obs import (
    LEDGER_SCHEMA,
    OUTAGE_CLASSES,
    AvailabilityLedger,
    OutageTally,
    render_report,
)
from repro.parallel import matrix, run_sweep
from repro.telemetry import (
    PhaseStart,
    ProbeLost,
    ProbeReply,
    ProbeSent,
    Telemetry,
    TraceRecorder,
    using,
)

TARGET = "10.0.0.1"


def run_context(technique="anycast", site="sea1", t=0.0):
    return PhaseStart(
        t=t, name="fail-probe", tags={"technique": technique, "site": site}
    )


def probe_round_trip(t, seq, site="msn"):
    return [
        ProbeSent(t=t, target=TARGET, seq=seq),
        ProbeReply(t=t + 0.1, target=TARGET, seq=seq, site=site),
    ]


class TestIntervalConstruction:
    def test_no_probes_no_outages(self):
        ledger = AvailabilityLedger.from_events([run_context()])
        assert ledger.outages == []
        assert ledger.user_seconds_lost() == 0.0

    def test_all_answered_no_outages(self):
        events = [run_context()]
        for seq in range(5):
            events.extend(probe_round_trip(t=10.0 * seq, seq=seq))
        assert AvailabilityLedger.from_events(events).outages == []

    def test_consecutive_failures_form_one_interval(self):
        events = [run_context()]
        events.extend(probe_round_trip(t=0.0, seq=0))
        events.append(ProbeSent(t=10.0, target=TARGET, seq=1))
        events.append(ProbeLost(t=10.5, target=TARGET, seq=1, reason="no-route"))
        events.append(ProbeSent(t=20.0, target=TARGET, seq=2))
        events.append(ProbeLost(t=20.5, target=TARGET, seq=2, reason="no-route"))
        events.extend(probe_round_trip(t=30.0, seq=3))
        ledger = AvailabilityLedger.from_events(events)
        assert len(ledger.outages) == 1
        outage = ledger.outages[0]
        # from the first failed send to the send of the next answered probe
        assert (outage.start, outage.end) == (10.0, 30.0)
        assert outage.probes_missed == 2
        assert outage.duration == 20.0

    def test_unanswered_probe_counts_as_failed(self):
        # no reply ever recorded for seq 1: reply still in flight at the
        # end of the run is downtime, not a gap in the books
        events = [run_context()]
        events.extend(probe_round_trip(t=0.0, seq=0))
        events.append(ProbeSent(t=10.0, target=TARGET, seq=1))
        events.extend(probe_round_trip(t=20.0, seq=2))
        ledger = AvailabilityLedger.from_events(events)
        assert len(ledger.outages) == 1
        assert ledger.outages[0].outage_class == "blackhole"

    def test_trailing_outage_closed_by_median_gap(self):
        events = [run_context()]
        for seq in range(3):
            events.extend(probe_round_trip(t=10.0 * seq, seq=seq))
        events.append(ProbeSent(t=30.0, target=TARGET, seq=3))
        events.append(ProbeLost(t=30.5, target=TARGET, seq=3, reason="no-route"))
        ledger = AvailabilityLedger.from_events(events)
        assert len(ledger.outages) == 1
        # last failed send (30) + the 10s median inter-probe gap
        assert ledger.outages[0].end == 40.0

    def test_separate_runs_do_not_mix(self):
        # same target and seq numbers in two runs: the run context keys
        # them apart, so neither run sees the other's replies
        events = [run_context(technique="anycast")]
        events.append(ProbeSent(t=0.0, target=TARGET, seq=0))
        events.append(run_context(technique="reactive-anycast", t=5.0))
        events.extend(probe_round_trip(t=10.0, seq=0))
        ledger = AvailabilityLedger.from_events(events)
        assert len(ledger.outages) == 1
        assert ledger.outages[0].technique == "anycast"


class TestClassification:
    def fail(self, t, seq, reason):
        return [
            ProbeSent(t=t, target=TARGET, seq=seq),
            ProbeLost(t=t + 0.1, target=TARGET, seq=seq, reason=reason),
        ]

    def outage_for(self, reasons):
        events = [run_context()]
        for seq, reason in enumerate(reasons):
            events.extend(self.fail(10.0 * seq, seq, reason))
        events.extend(probe_round_trip(t=10.0 * len(reasons), seq=99))
        ledger = AvailabilityLedger.from_events(events)
        assert len(ledger.outages) == 1
        return ledger.outages[0]

    def test_majority_reason_wins(self):
        outage = self.outage_for(["loop", "ttl-exceeded", "no-route"])
        assert outage.outage_class == "loop"

    def test_wrong_site_class(self):
        outage = self.outage_for(["dead-site", "off-net"])
        assert outage.outage_class == "wrong-site"

    def test_tie_breaks_blackhole_over_loop(self):
        outage = self.outage_for(["loop", "unreachable"])
        assert outage.outage_class == "blackhole"

    def test_tie_breaks_loop_over_wrong_site(self):
        outage = self.outage_for(["off-net", "ttl-exceeded"])
        assert outage.outage_class == "loop"

    def test_unknown_reason_folds_to_blackhole(self):
        outage = self.outage_for(["martian-packets"])
        assert outage.outage_class == "blackhole"


class TestAggregationAndJson:
    def make_ledger(self):
        events = [run_context(technique="anycast", site="sea1")]
        events.append(ProbeSent(t=0.0, target=TARGET, seq=0))
        events.append(ProbeLost(t=0.5, target=TARGET, seq=0, reason="no-route"))
        events.extend(probe_round_trip(t=10.0, seq=1))
        events.append(run_context(technique="anycast", site="ams", t=20.0))
        events.append(ProbeSent(t=20.0, target="10.0.0.2", seq=0))
        events.append(ProbeLost(t=20.5, target="10.0.0.2", seq=0, reason="loop"))
        events.extend(
            [
                ProbeSent(t=30.0, target="10.0.0.2", seq=1),
                ProbeReply(t=30.1, target="10.0.0.2", seq=1, site="msn"),
            ]
        )
        return AvailabilityLedger.from_events(events)

    def test_by_technique_rollup(self):
        total, sites = self.make_ledger().by_technique()["anycast"]
        assert total.outages == 2
        assert total.user_seconds_lost == 20.0
        assert set(sites) == {"sea1", "ams"}
        assert sites["ams"].by_class["loop"] == 10.0
        # the technique's row is its sites' rows merged
        assert total == OutageTally.merged(sites.values())
        assert total.targets == {TARGET, "10.0.0.2"}

    def test_to_dict_schema(self):
        doc = self.make_ledger().to_dict()
        assert doc["schema"] == LEDGER_SCHEMA
        assert doc["total_outages"] == 2
        assert doc["total_user_seconds_lost"] == 20.0
        tech = doc["techniques"]["anycast"]
        assert set(tech["by_class"]) == set(OUTAGE_CLASSES)
        assert tech["targets_affected"] == 2

    def test_json_is_canonical(self):
        ledger = self.make_ledger()
        text = ledger.to_json()
        assert text == self.make_ledger().to_json()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == LEDGER_SCHEMA

    def test_render_report_lists_technique_and_site(self):
        text = render_report(self.make_ledger())
        assert "2 outage(s)" in text
        assert "anycast" in text
        assert "sea1" in text and "ams" in text

    def test_render_empty_report(self):
        text = render_report(AvailabilityLedger())
        assert "no probe activity" in text


class TestSerialParallelByteIdentity:
    """Satellite (d): the ledger built from a two-worker sweep's merged
    trace is byte-identical to the serial run's."""

    FAST = SessionTiming(latency=0.05, jitter=0.5, mrai=10.0, busy_prob=0.3, fib_delay=1.0)

    @pytest.fixture(scope="class")
    def sweep_inputs(self, deployment):
        config = FailoverConfig(
            probe_duration=40.0, targets_per_site=4, timing=self.FAST, seed=13
        )
        experiment = FailoverExperiment(deployment.topology, deployment, config)
        cells = matrix([Anycast(), ReactiveAnycast()], list(deployment.site_names[:2]))
        return experiment, cells

    def ledger_json(self, experiment, cells, workers):
        tracer = TraceRecorder()
        with using(Telemetry(tracer=tracer)):
            report = run_sweep(experiment, cells, workers=workers)
        assert report.ok
        return AvailabilityLedger.from_events(tracer.events).to_json()

    def test_two_workers_byte_identical(self, sweep_inputs):
        experiment, cells = sweep_inputs
        serial = self.ledger_json(experiment, cells, workers=1)
        parallel = self.ledger_json(experiment, cells, workers=2)
        assert serial == parallel
        assert json.loads(serial)["total_outages"] > 0
