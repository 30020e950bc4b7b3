"""Discrete-event simulation engine.

A minimal, deterministic event loop: callbacks are scheduled at absolute
simulated times and executed in (time, insertion order). All BGP message
delivery, MRAI timer expiry, probing, and failure injection in this repo
runs on one :class:`EventEngine`, so a whole experiment shares a single
simulated clock measured in seconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Callable

from repro.telemetry import registry as telemetry_registry


class CallbackError(RuntimeError):
    """A scheduled callback raised.

    Wraps the original exception (available as ``__cause__``) with the
    simulation-time context a bare traceback lacks: when the callback
    was due and what it was.
    """

    def __init__(self, when: float, callback: Callable[[], None]) -> None:
        super().__init__(
            f"event callback {callback!r} scheduled at t={when:.6f}s raised"
        )
        self.when = when
        self.callback = callback


class EventEngine:
    """A deterministic discrete-event scheduler.

    Events scheduled for the same instant run in insertion order, which
    keeps runs reproducible for a fixed random seed.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0
        #: the quiet horizon: the latest timer deadline ever noted. A
        #: timer is a deadline, not an event (docs/architecture.md, "MRAI
        #: pacing"), so a drained queue is idle only once the clock has
        #: reached this; see :meth:`run_until_idle`.
        self._horizon = 0.0
        #: the deadline of the run in progress (see :attr:`deadline`)
        self._deadline: float | None = None
        #: active telemetry backend, captured at construction; the
        #: disabled (NULL) backend makes instrumentation one attr check
        telemetry = telemetry_registry.current()
        self._telemetry = telemetry
        # step() is the single hottest call in any run; resolve the three
        # instruments it touches once, instead of three dict lookups per
        # event. _cb_hist doubles as the "telemetry enabled" flag.
        if telemetry.enabled:
            self._cb_hist = telemetry.histogram("engine.callback_wall_us")
            self._events_counter = telemetry.counter("engine.events_processed")
            self._queue_gauge = telemetry.gauge("engine.queue_depth")
        else:
            self._cb_hist = self._events_counter = self._queue_gauge = None
        #: optional EventProfiler (see repro.obs.profiler), attached to
        #: the telemetry object by the CLI's --profile flag
        self._profiler = telemetry.profiler

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    @property
    def horizon(self) -> float:
        """The latest deadline :meth:`note_deadline` was given."""
        return self._horizon

    @property
    def deadline(self) -> float | None:
        """The deadline of the run in progress: ``run_until``'s, +inf
        under ``run_until_idle``, None when no run is in progress (a
        bare :meth:`step`). No event past it executes in this run."""
        return self._deadline

    def note_deadline(self, when: float) -> None:
        """Record a timer that runs out at ``when`` with no event queued
        for it: an idle engine's clock moves on to the latest such
        deadline, as it would have run to an expiry event at that time."""
        if when > self._horizon:
            self._horizon = when

    def peek(self) -> float | None:
        """The scheduled time of the next event, or None when idle."""
        if not self._queue:
            return None
        return self._queue[0][0]

    def warp(self, now: float) -> None:
        """Jump an *idle* engine's clock to ``now`` (checkpoint restore).

        Only an empty queue may warp: with events pending, a clock jump
        would change their relative firing order against anything
        scheduled afterwards. Going backwards is refused for the same
        reason ``schedule_at`` refuses the past.
        """
        if self._queue:
            raise RuntimeError(f"cannot warp with {len(self._queue)} event(s) queued")
        if not now >= self._now:  # NaN too
            raise ValueError(f"cannot warp to {now} < now {self._now}")
        self._now = now

    def clear(self) -> None:
        """Drop every queued event unrun (the owning network is closing)."""
        self._queue.clear()

    def reset(self, now: float) -> None:
        """Become a fresh engine warped to ``now`` (checkpoint rewind):
        queued events dropped unrun, sequence numbers counted from 0
        again, no deadline noted and nothing processed yet."""
        self._queue.clear()
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._horizon = 0.0
        self._deadline = None
        self.warp(now)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from the current time."""
        if not delay >= 0:  # NaN too: it would sit at the heap head, unordered
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + delay, next(self._counter), callback))

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``when``."""
        if not when >= self._now:  # NaN too
            raise ValueError(f"cannot schedule at {when} < now {self._now}")
        heapq.heappush(self._queue, (when, next(self._counter), callback))

    def step(self) -> bool:
        """Execute the next event; returns False if the queue is empty.

        A raising callback surfaces as :class:`CallbackError` carrying
        the scheduled time and callback repr, chained onto the original
        exception.
        """
        if not self._queue:
            return False
        when, _, callback = heapq.heappop(self._queue)
        self._now = when
        self._processed += 1
        if self._cb_hist is not None:
            # Wall-clock reads feed only the telemetry histogram and the
            # profiler, never the simulation state, so the determinism
            # lint is waived.
            start = time.perf_counter()  # repro: noqa[DET004]
            try:
                callback()
            except Exception as error:
                raise CallbackError(when, callback) from error
            wall_s = time.perf_counter() - start  # repro: noqa[DET004]
            self._cb_hist.observe(wall_s * 1e6)
            self._events_counter.inc()
            self._queue_gauge.set(len(self._queue))
            profiler = self._profiler
            if profiler is not None:
                name = getattr(callback, "__qualname__", None)
                profiler.record_callback(
                    name if name is not None else type(callback).__name__, wall_s
                )
        else:
            try:
                callback()
            except Exception as error:
                raise CallbackError(when, callback) from error
        return True

    def drain(self, deadline: float, max_events: int | None = None) -> None:
        """Execute every event due by ``deadline`` (inclusive) and leave
        the clock at the last one: the loop under :meth:`run_until`,
        :meth:`run_until_idle` and ``BgpNetwork.converge``.

        It sets no :attr:`deadline` (``converge`` runs with none, so the
        prober's windowed pass never cuts a converge short) and moves the
        clock no further than the last event. Untraced, it pops the heap
        itself, one method call per event fewer; traced, it runs
        :meth:`step`, which times each callback. ``max_events`` is the
        livelock valve of :meth:`run_until_idle`.
        """
        queue, pop = self._queue, heapq.heappop
        traced = self._cb_hist is not None
        executed = 0
        while queue and queue[0][0] <= deadline:
            if traced:
                self.step()
            else:
                when, _, callback = pop(queue)
                self._now = when
                self._processed += 1
                try:
                    callback()
                except Exception as error:
                    raise CallbackError(when, callback) from error
            executed += 1
            if max_events is not None and executed > max_events:
                raise RuntimeError(f"engine did not go idle within {max_events} events")

    def run_until(self, deadline: float) -> None:
        """Execute events until the clock would pass ``deadline``.

        The clock is left at ``deadline`` (events at exactly ``deadline``
        are executed). A ``deadline`` in the past or NaN raises
        ``ValueError`` (matching :meth:`schedule_at`): silently doing
        nothing would make a caller's arithmetic bug vanish without a
        trace.
        """
        if not deadline >= self._now:  # NaN too
            raise ValueError(f"cannot run until {deadline} < now {self._now}")
        outer, self._deadline = self._deadline, deadline
        try:
            self.drain(deadline)
        finally:
            self._deadline = outer
        if deadline > self._now:
            self._now = deadline

    def run_until_idle(self, max_events: int | None = None) -> None:
        """Execute events until the queue drains, then move the clock on
        to the quiet horizon if it lies ahead.

        ``max_events`` is a safety valve against livelock (e.g. a routing
        oscillation); exceeding it raises ``RuntimeError``.
        """
        outer, self._deadline = self._deadline, math.inf
        try:
            self.drain(math.inf, max_events)
        finally:
            self._deadline = outer
        if self._horizon > self._now:
            self._now = self._horizon

    def advance(self, delta: float) -> None:
        """Run events for ``delta`` more seconds of simulated time."""
        self.run_until(self._now + delta)
