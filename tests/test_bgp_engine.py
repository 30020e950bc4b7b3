"""Unit tests for the discrete-event engine."""

import pytest

from repro.bgp.engine import CallbackError, EventEngine
from repro.bgp.policy import Relationship


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

    def test_deadline_is_the_run_in_progress(self):
        """What a callback may rely on: no event past ``deadline`` runs
        in this run. None outside a run and under a bare ``step``."""
        engine = EventEngine()
        seen = []
        for _ in range(3):
            engine.schedule(1.0, lambda: seen.append(engine.deadline))
        assert engine.deadline is None
        engine.step()
        engine.run_until(5.0)
        engine.schedule(1.0, lambda: seen.append(engine.deadline))
        engine.run_until_idle()
        assert seen == [None, 5.0, 5.0, float("inf")]
        assert engine.deadline is None

    def test_a_raising_run_leaves_no_deadline(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: 1 / 0)
        with pytest.raises(CallbackError):
            engine.run_until(2.0)
        assert engine.deadline is None


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


NAN = float("nan")


class TestNanTimes:
    """NaN compares false both ways: a NaN event would sit at the heap
    head and stop every run loop short, so every entry point refuses it."""

    def test_schedule_refuses_nan(self):
        engine = EventEngine()
        seen = []
        engine.schedule(0.5, lambda: seen.append(0.5))
        engine.schedule(1.0, lambda: seen.append(1.0))
        with pytest.raises(ValueError):
            engine.schedule(NAN, lambda: seen.append("nan"))
        engine.run_until(10.0)
        assert (seen, engine.now, engine.pending) == ([0.5, 1.0], 10.0, 0)

    def test_schedule_at_refuses_nan(self):
        engine = EventEngine()
        with pytest.raises(ValueError):
            engine.schedule_at(NAN, lambda: None)
        assert engine.pending == 0

    def test_run_until_refuses_nan(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.run_until(NAN)
        assert (engine.now, engine.pending, engine.deadline) == (0.0, 1, None)

    def test_warp_refuses_nan(self):
        engine = EventEngine()
        engine.warp(3.0)
        with pytest.raises(ValueError):
            engine.warp(NAN)
        assert engine.now == 3.0

    def test_converge_refuses_nan(self):
        from repro.bgp.network import BgpNetwork

        network = BgpNetwork(seed=1)
        network.engine.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            network.converge(max_seconds=NAN)
        assert (network.now, network.engine.pending) == (0.0, 1)


@pytest.fixture(params=["untraced", "traced"])
def traced(request):
    """Whether engines built in the test time their callbacks (an active
    telemetry backend with a profiler) or run them bare."""
    from repro import telemetry
    from repro.obs.profiler import EventProfiler

    if request.param == "untraced":
        yield None
        return
    profiler = EventProfiler()
    with telemetry.using(telemetry.Telemetry(profiler=profiler)):
        yield profiler


def busy_engine(log):
    """Events at repeated and nested times; each logs (now, tag)."""
    engine = EventEngine()

    def event(tag):
        log.append((engine.now, tag))
        if tag % 3 == 0:
            engine.schedule(0.25 * tag, lambda: event(tag + 100))

    for tag, when in enumerate([2.0, 1.0, 1.0, 3.5, 0.0, 2.0, 7.0]):
        engine.schedule_at(when, lambda tag=tag: event(tag))
    return engine


class TestDrainLoop:
    """``drain`` is the loop under ``run_until``, ``run_until_idle`` and
    ``BgpNetwork.converge``; held to one ``step`` at a time."""

    @staticmethod
    def stepped(deadline):
        log = []
        engine = busy_engine(log)
        while engine.pending and engine.peek() <= deadline:
            engine.step()
        return log, engine.processed, engine.now

    @pytest.mark.parametrize("deadline", [0.0, 1.0, 2.0, 3.0, 100.0])
    def test_drain_runs_what_step_runs(self, traced, deadline):
        log = []
        engine = busy_engine(log)
        engine.drain(deadline)
        assert (log, engine.processed, engine.now) == self.stepped(deadline)
        assert engine.deadline is None

    def test_run_until_and_run_until_idle(self, traced):
        log = []
        engine = busy_engine(log)
        engine.run_until(2.0)
        assert (engine.processed, engine.now) == (self.stepped(2.0)[1], 2.0)
        engine.note_deadline(60.0)
        engine.run_until_idle()
        reference, processed, _ = self.stepped(100.0)
        assert (log, engine.processed, engine.now) == (reference, processed, 60.0)

    def test_max_events_still_fires(self, traced):
        engine = EventEngine()

        def respawn():
            engine.schedule(1.0, respawn)

        engine.schedule(1.0, respawn)
        with pytest.raises(RuntimeError, match="within 100 events"):
            engine.run_until_idle(max_events=100)
        assert (engine.processed, engine.now, engine.deadline) == (101, 101.0, None)

    @pytest.mark.parametrize("run", ["run_until", "run_until_idle", "drain", "converge"])
    def test_a_raising_callback_is_a_callback_error(self, traced, run):
        from repro.bgp.network import BgpNetwork

        network = BgpNetwork(seed=1)
        engine = network.engine
        engine.schedule(1.0, lambda: None)

        def explode():
            raise KeyError("missing prefix")

        engine.schedule(2.5, explode)
        calls = {
            "run_until": lambda: engine.run_until(5.0),
            "run_until_idle": engine.run_until_idle,
            "drain": lambda: engine.drain(5.0),
            "converge": network.converge,
        }
        with pytest.raises(CallbackError) as excinfo:
            calls[run]()
        assert (excinfo.value.when, excinfo.value.callback) == (2.5, explode)
        assert isinstance(excinfo.value.__cause__, KeyError)
        assert (engine.processed, engine.now, engine.deadline) == (2, 2.5, None)


def small_network():
    """Three routers in a line, FIB lag on, one prefix announced at the
    end: deliveries, MRAI expiries and FIB installs all run."""
    from repro.bgp.network import BgpNetwork
    from repro.bgp.session import SessionTiming
    from repro.net.addr import IPv4Prefix

    network = BgpNetwork(seed=5, default_timing=SessionTiming(mrai=5.0, fib_delay=1.0))
    for node, asn in (("a", 1), ("b", 2), ("c", 3)):
        network.add_router(node, asn)
    network.connect("a", "b", Relationship.PROVIDER)
    network.connect("b", "c", Relationship.PROVIDER)
    prefix = IPv4Prefix.parse("184.164.244.0/24")
    network.announce("a", prefix)
    return network, prefix


class TestConvergeRunsUnderNoDeadline:
    def test_deadline_stays_none(self, traced):
        network, prefix = small_network()
        seen = []
        network.engine.schedule(0.1, lambda: seen.append(network.engine.deadline))
        quiet = network.converge()
        assert seen == [None] and network.engine.deadline is None
        assert quiet == network.now > 0 and network.engine.pending == 0
        assert network.routers["c"].best_route(prefix) is not None

    def test_profile_callback_names(self):
        """``repro profile`` and bench's layer table key on these names."""
        from repro import telemetry
        from repro.obs.profiler import EventProfiler

        profiler = EventProfiler()
        with telemetry.using(telemetry.Telemetry(profiler=profiler)):
            network, prefix = small_network()
            network.run_for(0.5)
            network.withdraw("a", prefix)  # waits behind a's MRAI timer
            network.converge()
        assert sorted(profiler.callbacks) == [
            "BgpRouter._schedule_fib_install.<locals>.<lambda>",
            "Session._make_delivery.<locals>.deliver",
            "Session._make_mrai_expiry.<locals>.mrai_expired",
        ]
