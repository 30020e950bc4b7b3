"""Unit tests for the telemetry subsystem (metrics, traces, registry)."""

from __future__ import annotations

import json
import logging
import math
import random

import pytest

from repro import telemetry
from repro.telemetry import logs
from repro.telemetry.metrics import Counter, Gauge, Histogram


class TestHistogram:
    def test_empty_quantiles_are_nan(self):
        h = Histogram("t")
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.median())
        assert math.isnan(h.mean)
        summary = h.summary()
        assert summary["count"] == 0
        assert math.isnan(summary["p99"])

    def test_single_sample_is_exact_everywhere(self):
        h = Histogram("t")
        h.observe(3.7)
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert h.quantile(q) == 3.7
        assert h.mean == 3.7
        assert h.summary()["min"] == h.summary()["max"] == 3.7

    def test_quantile_bounds_validated(self):
        h = Histogram("t")
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_two_samples_median(self):
        h = Histogram("t")
        h.observe(1.0)
        h.observe(100.0)
        # Nearest-rank: the p50 of two samples is the first.
        assert h.quantile(0.5) == pytest.approx(1.0, rel=0.06)
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.0) == 1.0

    def test_streaming_quantiles_track_exact_within_bucket_error(self):
        rng = random.Random(42)
        values = [rng.uniform(0.001, 500.0) for _ in range(20000)]
        h = Histogram("t")
        h.observe_many(values)
        ranked = sorted(values)
        for q in (0.1, 0.5, 0.95, 0.99):
            exact = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
            assert h.quantile(q) == pytest.approx(exact, rel=0.06)

    def test_zero_and_negative_go_to_underflow(self):
        h = Histogram("t")
        h.observe(0.0)
        h.observe(-5.0)
        h.observe(10.0)
        assert h.count == 3
        assert h.min == -5.0
        # p50 of three samples is the second-smallest: the underflow
        # bucket, represented by the running minimum.
        assert h.quantile(0.34) == -5.0

    def test_extreme_quantiles_clamped_to_observed_range(self):
        h = Histogram("t")
        h.observe_many([5.0] * 100)
        assert h.quantile(0.99) == 5.0
        assert h.quantile(0.01) == 5.0


class TestHistogramMerge:
    def test_state_roundtrip_preserves_quantiles(self):
        rng = random.Random(7)
        values = [rng.uniform(0.001, 500.0) for _ in range(5000)]
        h = Histogram("t")
        h.observe_many(values)
        merged = Histogram("t")
        merged.merge_state(h.state())
        for q in (0.1, 0.5, 0.95, 0.99):
            assert merged.quantile(q) == h.quantile(q)
        assert merged.count == h.count
        assert merged.min == h.min
        assert merged.max == h.max

    def test_merge_equals_observing_everything_in_one(self):
        """Two shards merged bucket-by-bucket match a single histogram
        that saw every sample -- the parallel-sweep invariant."""
        rng = random.Random(11)
        a_values = [rng.uniform(0.01, 100.0) for _ in range(2000)]
        b_values = [rng.uniform(0.01, 100.0) for _ in range(2000)]
        combined = Histogram("t")
        combined.observe_many(a_values)
        combined.observe_many(b_values)
        a, b = Histogram("t"), Histogram("t")
        a.observe_many(a_values)
        b.observe_many(b_values)
        merged = Histogram("t")
        merged.merge_state(a.state())
        merged.merge_state(b.state())
        assert merged.count == combined.count
        assert merged.total == pytest.approx(combined.total)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert merged.quantile(q) == combined.quantile(q)

    def test_merge_state_with_json_string_bucket_keys(self):
        """States that crossed a JSON boundary have string bucket
        indices; merge_state must coerce them back."""
        h = Histogram("t")
        h.observe_many([1.0, 2.0, 4.0, 0.0, -1.0])
        state = json.loads(json.dumps(h.state()))
        assert all(isinstance(k, str) for k in state["buckets"])
        merged = Histogram("t")
        merged.merge_state(state)
        assert merged.count == h.count
        assert merged.min == h.min
        assert merged.quantile(0.5) == h.quantile(0.5)

    def test_empty_state_merge_is_identity(self):
        h = Histogram("t")
        h.observe(3.0)
        before = h.state()
        h.merge_state(Histogram("other").state())
        assert h.state() == before

    def test_empty_state_min_max_are_none(self):
        state = Histogram("t").state()
        assert state["count"] == 0
        assert state["min"] is None
        assert state["max"] is None


class TestSnapshotMerge:
    def test_counters_sum_and_histograms_pool(self):
        worker_a = telemetry.Telemetry()
        worker_a.inc("bgp.updates_sent", 5)
        worker_a.observe("phase.probe.wall_s", 1.0)
        worker_b = telemetry.Telemetry()
        worker_b.inc("bgp.updates_sent", 7)
        worker_b.observe("phase.probe.wall_s", 3.0)
        parent = telemetry.Telemetry()
        parent.merge_snapshot(worker_a.mergeable_snapshot())
        parent.merge_snapshot(worker_b.mergeable_snapshot())
        assert parent.counters["bgp.updates_sent"].value == 12
        assert parent.histograms["phase.probe.wall_s"].count == 2
        assert parent.histograms["phase.probe.wall_s"].max == 3.0

    def test_gauges_keep_running_max_and_last_value(self):
        worker_a = telemetry.Telemetry()
        worker_a.set_gauge("engine.queue_depth", 9.0)
        worker_a.set_gauge("engine.queue_depth", 2.0)
        worker_b = telemetry.Telemetry()
        worker_b.set_gauge("engine.queue_depth", 4.0)
        parent = telemetry.Telemetry()
        parent.merge_snapshot(worker_a.mergeable_snapshot())
        parent.merge_snapshot(worker_b.mergeable_snapshot())
        gauge = parent.gauges["engine.queue_depth"]
        assert gauge.value == 4.0  # last merged snapshot's last value
        assert gauge.max_value == 9.0  # running max across workers

    def test_mergeable_snapshot_survives_json(self):
        worker = telemetry.Telemetry()
        worker.inc("cells.done", 3)
        worker.observe("cell.wall_s", 0.5)
        wire = json.loads(json.dumps(worker.mergeable_snapshot()))
        parent = telemetry.Telemetry()
        parent.merge_snapshot(wire)
        assert parent.counters["cells.done"].value == 3
        assert parent.histograms["cell.wall_s"].count == 1

    def test_merge_order_determinism(self):
        """Merging the same snapshots in the same (cell) order always
        yields the same mergeable_snapshot, byte for byte."""
        snapshots = []
        for i in range(3):
            w = telemetry.Telemetry()
            w.inc("n", i + 1)
            w.observe("h", float(i + 1))
            w.set_gauge("g", float(i))
            snapshots.append(w.mergeable_snapshot())
        merged = []
        for _ in range(2):
            parent = telemetry.Telemetry()
            for snap in snapshots:
                parent.merge_snapshot(snap)
            merged.append(json.dumps(parent.mergeable_snapshot(), sort_keys=True))
        assert merged[0] == merged[1]

    def test_null_backend_merge_is_noop(self):
        null = telemetry.registry.NULL
        assert null.mergeable_snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        null.merge_snapshot({"counters": {"x": 1}})  # must not raise


class TestCounterGauge:
    def test_counter_inc(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_tracks_high_water(self):
        g = Gauge("depth")
        g.set(3.0)
        g.set(10.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.max_value == 10.0


class TestTraceRecorder:
    def test_unbounded_keeps_everything(self):
        rec = telemetry.TraceRecorder()
        for i in range(100):
            rec.record(telemetry.ProbeSent(t=float(i), target="10.0.0.1", seq=i))
        assert len(rec) == 100
        assert rec.dropped == 0

    def test_ring_buffer_evicts_oldest(self):
        rec = telemetry.TraceRecorder(capacity=3)
        for i in range(10):
            rec.record(telemetry.ProbeSent(t=float(i), target="10.0.0.1", seq=i))
        assert len(rec) == 3
        assert rec.dropped == 7
        assert [e.seq for e in rec.events] == [7, 8, 9]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            telemetry.TraceRecorder(capacity=0)

    def test_events_of_filters_by_type(self):
        rec = telemetry.TraceRecorder()
        rec.record(telemetry.SiteFailed(t=1.0, site="sea1"))
        rec.record(telemetry.ProbeSent(t=2.0, target="10.0.0.1", seq=1))
        assert [e.site for e in rec.events_of(telemetry.SiteFailed)] == ["sea1"]


class TestJsonl:
    def _sample_events(self):
        return [
            telemetry.SiteFailed(t=10.0, site="sea1", silent=True),
            telemetry.BgpUpdateSent(
                t=10.5, sender="a", receiver="b", prefix="10.0.0.0/24",
                update="withdraw",
            ),
            telemetry.RouteSelected(
                t=11.0, node="b", prefix="10.0.0.0/24", via=None, as_path_len=0
            ),
            telemetry.FibInstalled(t=11.5, node="b", prefix="10.0.0.0/24", next_hop=None),
            telemetry.FlapDamped(
                t=12.0, node="c", prefix="10.0.0.0/24", neighbor="a", penalty=2000.0
            ),
            telemetry.ProbeSent(t=13.0, target="1.2.3.4", seq=7),
            telemetry.ProbeReply(t=13.5, target="1.2.3.4", seq=7, site="ams"),
            telemetry.SiteSwitched(t=14.0, target="1.2.3.4", from_site="sea1", to_site="ams"),
            telemetry.PhaseStart(t=0.0, name="p", tags={"site": "sea1"}),
            telemetry.PhaseEnd(t=20.0, name="p", wall_s=0.5, sim_s=20.0, tags={"site": "sea1"}),
        ]

    def test_round_trip_preserves_events(self, tmp_path):
        events = self._sample_events()
        path = tmp_path / "trace.jsonl"
        assert telemetry.write_jsonl(path, events) == len(events)
        assert telemetry.read_jsonl(path) == events

    def test_every_event_kind_is_registered(self):
        for event in self._sample_events():
            assert telemetry.EVENT_TYPES[event.kind] is type(event)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"kind": "site_failed", "t": 1.0, "site": "x", "silent": False})
            + "\n\n"
        )
        events = telemetry.read_jsonl(path)
        assert len(events) == 1
        assert events[0] == telemetry.SiteFailed(t=1.0, site="x")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            telemetry.event_from_dict({"kind": "nope", "t": 0.0})

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            telemetry.read_jsonl(path)

    def test_recorder_write_jsonl(self, tmp_path):
        rec = telemetry.TraceRecorder()
        rec.record(telemetry.SiteFailed(t=1.0, site="x"))
        path = tmp_path / "t.jsonl"
        assert rec.write_jsonl(path) == 1
        assert telemetry.read_jsonl(path) == rec.events


class TestRegistry:
    def test_default_is_null(self):
        assert telemetry.current() is telemetry.NULL
        assert not telemetry.current().enabled

    def test_using_scopes_and_restores(self):
        active = telemetry.Telemetry()
        with telemetry.using(active):
            assert telemetry.current() is active
        assert telemetry.current() is telemetry.NULL

    def test_using_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with telemetry.using(telemetry.Telemetry()):
                raise RuntimeError("boom")
        assert telemetry.current() is telemetry.NULL

    def test_install_and_reset(self):
        active = telemetry.Telemetry()
        telemetry.install(active)
        try:
            assert telemetry.current() is active
        finally:
            telemetry.reset()
        assert telemetry.current() is telemetry.NULL

    def test_null_backend_is_inert(self):
        null = telemetry.NULL
        null.inc("x")
        null.observe("x", 1.0)
        null.set_gauge("x", 1.0)
        null.emit(telemetry.SiteFailed(t=0.0, site="s"))
        assert null.now() == 0.0
        with null.phase("p", site="s"):
            pass
        snapshot = null.snapshot()
        assert snapshot["enabled"] is False
        assert snapshot["counters"] == {}

    def test_instruments_created_on_demand_and_cached(self):
        active = telemetry.Telemetry()
        active.inc("a.b", 2)
        active.inc("a.b")
        assert active.counter("a.b").value == 3
        active.observe("h", 1.0)
        assert active.histogram("h").count == 1
        active.set_gauge("g", 4.0)
        assert active.gauge("g").value == 4.0

    def test_phase_records_events_and_wall_histogram(self):
        tracer = telemetry.TraceRecorder()
        active = telemetry.Telemetry(tracer=tracer)
        with active.phase("demo", site="sea1"):
            pass
        starts = tracer.events_of(telemetry.PhaseStart)
        ends = tracer.events_of(telemetry.PhaseEnd)
        assert len(starts) == len(ends) == 1
        assert starts[0].tags == {"site": "sea1"}
        assert ends[0].wall_s >= 0.0
        assert active.histogram("phase.demo.wall_s").count == 1

    def test_clock_binding(self):
        active = telemetry.Telemetry()
        assert active.now() == 0.0
        active.bind_clock(lambda: 42.0)
        assert active.now() == 42.0
        active.bind_clock(None)
        assert active.now() == 0.0

    def test_snapshot_and_render(self):
        active = telemetry.Telemetry(tracer=telemetry.TraceRecorder())
        active.inc("bgp.updates_sent", 3)
        active.observe("engine.callback_wall_us", 12.0)
        active.set_gauge("engine.queue_depth", 5)
        snapshot = active.snapshot()
        assert snapshot["counters"]["bgp.updates_sent"] == 3
        assert snapshot["histograms"]["engine.callback_wall_us"]["count"] == 1
        text = active.render()
        assert "bgp.updates_sent" in text
        assert "engine.queue_depth" in text


class TestSummary:
    def test_summarize_trace_aggregates(self):
        events = [
            telemetry.PhaseStart(t=0.0, name="fail-probe", tags={}),
            telemetry.SiteFailed(t=5.0, site="sea1"),
            telemetry.BgpUpdateSent(
                t=5.1, sender="r1", receiver="r2", prefix="p", update="withdraw"
            ),
            telemetry.BgpUpdateSent(
                t=5.2, sender="r1", receiver="r3", prefix="p", update="announce"
            ),
            telemetry.ProbeSent(t=6.0, target="t", seq=1),
            telemetry.ProbeReply(t=6.5, target="t", seq=1, site="ams"),
            telemetry.SiteSwitched(t=6.5, target="t", from_site="sea1", to_site="ams"),
            telemetry.PhaseEnd(t=90.0, name="fail-probe", wall_s=1.5, sim_s=90.0, tags={}),
        ]
        summary = telemetry.summarize_trace(events)
        assert summary.total_events == 8
        assert summary.t_first == 0.0 and summary.t_last == 90.0
        assert summary.updates_by_sender == {"r1": 2}
        assert summary.updates_by_type == {"withdraw": 1, "announce": 1}
        assert summary.site_failures == [(5.0, "sea1", False)]
        assert summary.probes_sent == 1 and summary.probe_replies == 1
        assert summary.site_switches == 1
        phase = summary.phases["fail-probe"]
        assert phase.runs == 1
        assert phase.wall_s == 1.5
        assert phase.sim_s == 90.0
        text = telemetry.render_summary(summary)
        assert "fail-probe" in text
        assert "sea1" in text

    def test_render_empty_trace(self):
        text = telemetry.render_summary(telemetry.summarize_trace([]))
        assert "0 events" in text


class TestLogs:
    def test_configure_levels(self):
        logger = logs.configure(0)
        assert logger.level == logging.WARNING
        assert logs.configure(1).level == logging.INFO
        assert logs.configure(2).level == logging.DEBUG
        assert logs.configure(9).level == logging.DEBUG

    def test_configure_is_idempotent(self):
        logs.configure(1)
        logger = logs.configure(1)
        ours = [h for h in logger.handlers if getattr(h, "_repro_installed", False)]
        assert len(ours) == 1


class TestFilterEvents:
    def events(self):
        return [
            telemetry.BgpUpdateSent(
                t=1.0, sender="a", receiver="b",
                prefix="184.164.254.0/24", update="announce",
            ),
            telemetry.BgpUpdateSent(
                t=2.0, sender="a", receiver="b",
                prefix="10.0.0.0/8", update="announce",
            ),
            telemetry.SiteFailed(t=3.0, site="sea1"),
            telemetry.ProbeLost(t=4.0, target="10.0.0.1", seq=0, reason="dead-site", site="msn"),
            telemetry.SiteSwitched(t=5.0, target="10.0.0.1", from_site="sea1", to_site="msn"),
        ]

    def test_no_filters_keeps_everything(self):
        events = self.events()
        assert telemetry.filter_events(events) == events

    def test_kind_filter(self):
        kept = telemetry.filter_events(self.events(), kind="bgp_update_sent")
        assert len(kept) == 2
        assert all(e.kind == "bgp_update_sent" for e in kept)

    def test_prefix_filter_drops_prefixless_events(self):
        kept = telemetry.filter_events(self.events(), prefix="184.164.254.0/24")
        assert [e.t for e in kept] == [1.0]

    def test_site_filter_matches_either_shift_end(self):
        kept = telemetry.filter_events(self.events(), site="sea1")
        assert {e.kind for e in kept} == {"site_failed", "site_switched"}
        kept = telemetry.filter_events(self.events(), site="msn")
        assert {e.kind for e in kept} == {"probe_lost", "site_switched"}

    def test_filters_and_together(self):
        kept = telemetry.filter_events(
            self.events(), kind="bgp_update_sent", prefix="10.0.0.0/8"
        )
        assert [e.t for e in kept] == [2.0]
        assert telemetry.filter_events(self.events(), kind="site_failed", site="msn") == []

    def test_summary_counts_new_event_kinds(self):
        summary = telemetry.summarize_trace(self.events() + [
            telemetry.RootCause(t=0.0, cause=1, action="site-fail", target="sea1"),
            telemetry.FaultInjected(t=1.0, fault="link-down", target="a<->b", cause=2),
            telemetry.FaultSkipped(t=2.0, fault="link-down", target="a<->b", reason="already down"),
            telemetry.DnsRecordChanged(t=3.0, site="sea1", action="remove"),
            telemetry.TraceMeta(t=0.0, recorded=100, dropped=9),
        ])
        assert summary.probes_lost == 1
        assert summary.losses_by_reason == {"dead-site": 1}
        assert summary.root_causes == 1
        assert summary.faults_injected == 1
        assert summary.faults_skipped == 1
        assert summary.dns_changes == [(3.0, "remove", "sea1")]
        assert summary.dropped_events == 9
        # the meta line's t=0.0 stays out of the simulated time range
        assert summary.t_first == 0.0 and summary.t_last == 5.0
        text = telemetry.render_summary(summary)
        assert "1 root cause(s)" in text
        assert "ring buffer evicted 9" in text
        assert "lost to dead-site" in text
        assert "DNS record changes" in text
