"""Unit tests for the discrete-event engine."""

import pytest

from repro.bgp.engine import EventEngine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = EventEngine()
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_same_time_runs_in_insertion_order(self):
        engine = EventEngine()
        order = []
        for tag in "abc":
            engine.schedule(1.0, lambda t=tag: order.append(t))
        engine.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventEngine().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = EventEngine()
        engine.schedule(5.0, lambda: None)
        engine.run_until_idle()
        assert engine.now == 5.0
        with pytest.raises(ValueError):
            engine.schedule_at(4.0, lambda: None)

    def test_clock_advances_to_event_time(self):
        engine = EventEngine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run_until_idle()
        assert seen == [2.5]

    def test_nested_scheduling(self):
        engine = EventEngine()
        times = []

        def first():
            times.append(engine.now)
            engine.schedule(1.0, lambda: times.append(engine.now))

        engine.schedule(1.0, first)
        engine.run_until_idle()
        assert times == [1.0, 2.0]


class TestRunControl:
    def test_run_until_stops_at_deadline(self):
        engine = EventEngine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(1))
        engine.schedule(10.0, lambda: seen.append(10))
        engine.run_until(5.0)
        assert seen == [1]
        assert engine.now == 5.0
        assert engine.pending == 1

    def test_run_until_inclusive_of_deadline(self):
        engine = EventEngine()
        seen = []
        engine.schedule(5.0, lambda: seen.append(5))
        engine.run_until(5.0)
        assert seen == [5]

    def test_run_until_past_deadline_raises(self):
        """Matches schedule_at: asking the engine to run to a point in
        the past is a caller bug, not a silent no-op."""
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        engine.run_until(5.0)
        with pytest.raises(ValueError):
            engine.run_until(4.0)
        assert engine.now == 5.0  # clock untouched by the rejected call

    def test_run_until_current_time_is_allowed(self):
        engine = EventEngine()
        engine.schedule(5.0, lambda: None)
        engine.run_until(5.0)
        engine.run_until(5.0)  # deadline == now: fine, no-op
        assert engine.now == 5.0

    def test_advance_relative(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        engine.run_until_idle()
        engine.advance(4.0)
        assert engine.now == 5.0

    def test_step_returns_false_when_empty(self):
        assert not EventEngine().step()

    def test_run_until_idle_livelock_guard(self):
        engine = EventEngine()

        def respawn():
            engine.schedule(1.0, respawn)

        engine.schedule(1.0, respawn)
        with pytest.raises(RuntimeError):
            engine.run_until_idle(max_events=100)

    def test_processed_counter(self):
        engine = EventEngine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run_until_idle()
        assert engine.processed == 5


class TestCallbackErrorGuardRail:
    def test_raising_callback_wrapped_with_context(self):
        from repro.bgp.engine import CallbackError

        engine = EventEngine()

        def explode():
            raise KeyError("missing prefix")

        engine.schedule(2.5, explode)
        with pytest.raises(CallbackError) as excinfo:
            engine.run_until_idle()
        error = excinfo.value
        assert error.when == 2.5
        assert error.callback is explode
        assert "t=2.500000s" in str(error)
        assert "explode" in str(error)
        assert isinstance(error.__cause__, KeyError)

    def test_wrapped_with_telemetry_enabled(self):
        from repro import telemetry
        from repro.bgp.engine import CallbackError

        with telemetry.using(telemetry.Telemetry()):
            engine = EventEngine()
            engine.schedule(1.0, lambda: None)

            def explode():
                raise RuntimeError("boom")

            engine.schedule(2.0, explode)
            with pytest.raises(CallbackError) as excinfo:
                engine.run_until_idle()
        assert excinfo.value.when == 2.0
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_healthy_callbacks_unaffected(self):
        engine = EventEngine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(engine.now))
        engine.run_until_idle()
        assert seen == [1.0]


class TestClockControl:
    def test_peek_returns_next_event_time(self):
        engine = EventEngine()
        assert engine.peek() is None
        engine.schedule(5.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.peek() == 2.0
        engine.step()
        assert engine.peek() == 5.0
        engine.run_until_idle()
        assert engine.peek() is None

    def test_peek_does_not_consume(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        assert engine.peek() == engine.peek() == 1.0
        assert engine.pending == 1

    def test_warp_moves_idle_clock_forward(self):
        engine = EventEngine()
        engine.warp(42.5)
        assert engine.now == 42.5
        seen = []
        engine.schedule(1.0, lambda: seen.append(engine.now))
        engine.run_until_idle()
        assert seen == [43.5]

    def test_warp_refuses_pending_events(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError, match="queued"):
            engine.warp(10.0)

    def test_reset_is_a_fresh_engine_warped(self):
        """Checkpoint rewind: queued events dropped unrun, sequence
        numbers from 0, no deadline, nothing processed, clock at ``now``
        (even behind the old one)."""
        engine = EventEngine()
        ran = []
        engine.schedule(1.0, lambda: ran.append(1))
        engine.step()
        engine.schedule(5.0, lambda: ran.append(2))
        engine.note_deadline(30.0)
        engine.reset(0.5)
        fresh = EventEngine()
        fresh.warp(0.5)
        assert (engine.now, engine.pending, engine.processed, engine.horizon) == (
            fresh.now, fresh.pending, fresh.processed, fresh.horizon,
        )
        assert next(engine._counter) == next(fresh._counter) == 0
        engine.run_until_idle()
        assert ran == [1]

    def test_warp_refuses_backwards(self):
        engine = EventEngine()
        engine.warp(10.0)
        with pytest.raises(ValueError):
            engine.warp(5.0)
        engine.warp(10.0)  # warping to now is a no-op
        assert engine.now == 10.0
