"""Hot-path profiler: recording, merge associativity, engine wiring."""

from __future__ import annotations

import functools
import gc

from repro.bgp.engine import EventEngine
from repro.net.addr import IPv4Prefix
from repro.obs import (
    PROFILE_SCHEMA,
    EventProfiler,
    render_profile,
    watch_collector,
)
from repro.telemetry import PhaseEnd, Telemetry, using

from tests.conftest import build_line_network

PREFIX = IPv4Prefix.parse("184.164.254.0/24")


class TestRecording:
    def test_callback_accumulates_count_and_wall(self):
        profiler = EventProfiler()
        profiler.record_callback("Session._mrai_expired", 0.25)
        profiler.record_callback("Session._mrai_expired", 0.75)
        state = profiler.state()
        assert state["schema"] == PROFILE_SCHEMA
        entry = state["callbacks"]["Session._mrai_expired"]
        assert entry == {"count": 2, "wall_s": 1.0}

    def test_phase_accumulates_runs_wall_and_sim(self):
        profiler = EventProfiler()
        profiler.record_phase(PhaseEnd(t=0.0, name="fail-probe", wall_s=2.0, sim_s=300.0))
        profiler.record_phase(PhaseEnd(t=0.0, name="fail-probe", wall_s=1.0, sim_s=100.0))
        entry = profiler.state()["phases"]["fail-probe"]
        assert entry == {"runs": 2, "wall_s": 3.0, "sim_s": 400.0}

    def test_integer_end_tags_keep_their_sum_and_carriers(self):
        """Only integer tags fold, each as its sum and the runs that
        carried it; the note line reads them without the fold naming
        the tag."""
        profiler = EventProfiler()
        for tags in ({"site": "msn"}, {"site": "sea1", "rewound": 40}, {"rewound": 2}):
            profiler.record_phase(PhaseEnd(t=0.0, name="fork-restore", wall_s=1.0, tags=tags))
        entry = profiler.state()["phases"]["fork-restore"]
        assert entry["tags"] == {"rewound": {"sum": 42, "runs": 2}}
        lines = render_profile(profiler.state()).splitlines()
        assert "    1 restored, 2 rewound (42 routers reloaded)" in lines

    def test_reply_note_needs_both_tags_and_prints_zeros(self):
        """The reply note is printed for a phase that carried ``flown``
        and ``quiet``, zeros included, and skipped when one is missing."""
        zero = EventProfiler()
        zero.record_phase(PhaseEnd(t=0.0, name="fail-probe", tags={"flown": 0, "quiet": 0}))
        assert "    0 replies flown, 0 quiet" in render_profile(zero.state()).splitlines()
        half = {"callbacks": {}, "phases": {
            "fail-probe": {"runs": 1, "wall_s": 1.0, "sim_s": 0.0,
                           "tags": {"quiet": {"sum": 3, "runs": 1}}},
        }}
        assert "quiet" not in render_profile(half)

    def test_state_is_sorted_and_json_safe(self):
        profiler = EventProfiler()
        profiler.record_callback("zeta", 0.1)
        profiler.record_callback("alpha", 0.1)
        assert list(profiler.state()["callbacks"]) == ["alpha", "zeta"]


class TestCollector:
    def test_passes_accumulate_per_generation(self):
        profiler = EventProfiler()
        profiler.record_collection(2, 0.25, 1000)
        profiler.record_collection(2, 0.5, 24)
        profiler.record_collection(0, 0.001, 0)
        assert profiler.state()["collector"] == {
            "gen0": {"passes": 1, "wall_s": 0.001, "collected": 0},
            "gen2": {"passes": 2, "wall_s": 0.75, "collected": 1024},
        }

    def test_merge_sums_and_tolerates_a_state_without_the_key(self):
        profiler = EventProfiler()
        profiler.record_collection(2, 0.5, 10)
        other = EventProfiler()
        other.record_collection(2, 0.25, 5)
        profiler.merge_state(other.state())
        # A /1 file written before the table existed has no such key.
        profiler.merge_state({"schema": PROFILE_SCHEMA, "callbacks": {}, "phases": {}})
        assert profiler.state()["collector"] == {
            "gen2": {"passes": 2, "wall_s": 0.75, "collected": 15}
        }

    def test_watch_feeds_every_pass_and_unhooks_on_the_way_out(self):
        profiler = EventProfiler()
        hooks = list(gc.callbacks)
        with watch_collector(profiler):
            ring = []
            ring.append(ring)
            del ring
            gc.collect()
        assert gc.callbacks == hooks
        gc.collect()  # outside the block: not counted
        full = profiler.state()["collector"]["gen2"]
        assert full["passes"] == 1 and full["collected"] >= 1 and full["wall_s"] > 0.0

    def test_watch_unhooks_when_the_block_raises(self):
        hooks = list(gc.callbacks)
        try:
            with watch_collector(EventProfiler()):
                raise RuntimeError
        except RuntimeError:
            pass
        assert gc.callbacks == hooks

    def test_watch_without_a_profiler_hooks_nothing(self):
        hooks = list(gc.callbacks)
        with watch_collector(None):
            assert gc.callbacks == hooks

    def test_rendered_under_the_phase_table(self):
        profiler = EventProfiler()
        profiler.record_phase(PhaseEnd(t=0.0, name="fail-probe", wall_s=1.0, sim_s=240.0))
        profiler.record_collection(2, 0.125, 4321)
        text = render_profile(profiler.state())
        assert text.index("fail-probe") < text.index("collector")
        assert "gen2" in text and "4321" in text and "0.125s" in text

    def test_absent_table_renders_nothing(self):
        assert "collector" not in render_profile({"callbacks": {}, "phases": {}})


class TestCallbackName:
    def test_the_engine_keys_a_callback_by_qualname_or_else_its_type(self):
        def inner():
            pass

        profiler = EventProfiler()
        with using(Telemetry(profiler=profiler)):
            engine = EventEngine()
            engine.schedule(0.0, inner)
            engine.schedule(0.0, functools.partial(sorted, ()))  # a partial has no qualname
            engine.run_until_idle()
        assert sorted(profiler.callbacks) == [inner.__qualname__, "partial"]


class TestMerge:
    def filled(self, scale):
        profiler = EventProfiler()
        profiler.record_callback("a", 1.0 * scale)
        profiler.record_callback("b", 2.0 * scale)
        profiler.record_phase(PhaseEnd(
            t=0.0, name="p", wall_s=1.0 * scale, sim_s=10.0 * scale, tags={"quiet": scale}
        ))
        return profiler

    def test_merge_sums_counts_and_durations(self):
        target = self.filled(1)
        target.merge_state(self.filled(2).state())
        state = target.state()
        assert state["callbacks"]["a"] == {"count": 2, "wall_s": 3.0}
        assert state["phases"]["p"] == {
            "runs": 2, "wall_s": 3.0, "sim_s": 30.0, "tags": {"quiet": {"sum": 3, "runs": 2}},
        }

    def test_merge_is_associative(self):
        # (a + b) + c == a + (b + c): the property worker-pool merge
        # order relies on
        left = self.filled(1)
        left.merge_state(self.filled(2).state())
        left.merge_state(self.filled(3).state())

        bc = self.filled(2)
        bc.merge_state(self.filled(3).state())
        right = self.filled(1)
        right.merge_state(bc.state())

        assert left.state() == right.state()

    def test_merge_into_empty_is_identity(self):
        empty = EventProfiler()
        empty.merge_state(self.filled(1).state())
        assert empty.state() == self.filled(1).state()


class TestEngineWiring:
    def test_engine_attributes_callbacks_when_profiling(self):
        profiler = EventProfiler()
        with using(Telemetry(profiler=profiler)):
            net = build_line_network(3)
            net.announce("r0", PREFIX)
            net.converge()
        callbacks = profiler.state()["callbacks"]
        assert callbacks, "a converging network should profile its callbacks"
        # delivery callbacks dominate any BGP run
        assert any("deliver" in name for name in callbacks)
        assert all(entry["count"] > 0 for entry in callbacks.values())
        assert all(entry["wall_s"] >= 0.0 for entry in callbacks.values())

    def test_phase_context_reports_to_profiler(self):
        profiler = EventProfiler()
        telemetry = Telemetry(profiler=profiler)
        with using(telemetry):
            net = build_line_network(2)
            with telemetry.phase("converge"):
                net.announce("r0", PREFIX)
                net.converge()
        phases = profiler.state()["phases"]
        assert phases["converge"]["runs"] == 1
        assert phases["converge"]["sim_s"] >= 0.0

    def test_no_profiler_records_nothing(self):
        with using(Telemetry()):
            net = build_line_network(2)
            net.announce("r0", PREFIX)
            net.converge()
        # nothing to assert on a profiler -- the engine just must not
        # crash when telemetry is enabled without one


class TestRenderProfile:
    def state(self):
        profiler = EventProfiler()
        profiler.record_callback("Session._make_delivery.<locals>.deliver", 0.9)
        profiler.record_callback("Session._mrai_expired", 0.1)
        profiler.record_phase(PhaseEnd(t=0.0, name="fail-probe", wall_s=1.0, sim_s=240.0))
        return profiler.state()

    def test_report_ranks_by_wall_time(self):
        text = render_profile(self.state())
        assert "2 engine callbacks" in text
        deliver = text.index("deliver")
        mrai = text.index("_mrai_expired")
        assert deliver < mrai
        assert "90.0%" in text

    def test_top_truncates_with_remainder_line(self):
        text = render_profile(self.state(), top=1)
        assert "... 1 more" in text

    def test_phases_rendered_with_speedup(self):
        text = render_profile(self.state())
        assert "fail-probe" in text
        assert "240.0x" in text

    def test_empty_state_renders(self):
        text = render_profile({"callbacks": {}, "phases": {}})
        assert "0 engine callbacks" in text
