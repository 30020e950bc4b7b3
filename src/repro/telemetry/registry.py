"""The process-wide telemetry registry and its zero-cost null backend.

Instrumented components (engine, sessions, routers, probers) capture the
*active* telemetry object at construction time via :func:`current`.
When nothing is installed they get :data:`NULL`, whose ``enabled`` is
False -- every hot-path guard then costs exactly one attribute check and
a branch::

    tel = self._telemetry          # captured once, at construction
    if tel.enabled:                # the only disabled-mode cost
        tel.inc("bgp.updates_sent")

Experiments build fresh networks per run, so installation (CLI flag,
test fixture) happens before construction and the capture is always
up to date. :func:`using` scopes an installation to a ``with`` block,
which is what the CLI and tests use.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.trace import PhaseEnd, PhaseStart, TraceEvent, TraceRecorder


class NullTelemetry:
    """Disabled backend: every operation is a no-op.

    A single shared instance (:data:`NULL`) is handed to every component
    when telemetry is off, so the disabled hot path never allocates.
    """

    enabled = False
    profiler = None

    def counter(self, name: str) -> Counter:  # pragma: no cover - never hot
        return Counter(name)

    def gauge(self, name: str) -> Gauge:  # pragma: no cover - never hot
        return Gauge(name)

    def histogram(self, name: str) -> Histogram:  # pragma: no cover - never hot
        return Histogram(name)

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def emit(self, event: TraceEvent) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def bind_clock(self, clock: Callable[[], float] | None) -> None:
        pass

    @contextmanager
    def phase(self, name: str, **tags) -> Iterator[None]:
        yield

    def snapshot(self) -> dict:
        return {"enabled": False, "counters": {}, "gauges": {}, "histograms": {}}

    def mergeable_snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snapshot: dict) -> None:
        pass


#: the shared disabled backend
NULL = NullTelemetry()


class Telemetry:
    """A live registry of counters, gauges, histograms, and a tracer.

    Instruments are created on first use and keyed by name; dotted names
    (``bgp.updates_sent``, ``engine.callback_wall_us``) group related
    series. See ``docs/observability.md`` for the naming conventions.
    """

    enabled = True

    def __init__(self, tracer: TraceRecorder | None = None, profiler=None) -> None:
        self.tracer = tracer
        #: optional :class:`repro.obs.profiler.EventProfiler` (duck-typed
        #: here to keep telemetry importable without repro.obs); the
        #: engine attributes per-callback wall time to it and
        #: :meth:`phase` reports phase wall/sim durations.
        self.profiler = profiler
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        #: simulated-time source; rebound by each BgpNetwork to its engine
        self._clock: Callable[[], float] | None = None

    # ------------------------------------------------------------------
    # Instrument access

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Tracing

    def emit(self, event: TraceEvent) -> None:
        if self.tracer is not None:
            self.tracer.record(event)

    def now(self) -> float:
        """Current simulated time from the bound engine clock (0 if none)."""
        return self._clock() if self._clock is not None else 0.0

    def bind_clock(self, clock: Callable[[], float] | None) -> None:
        """Point :meth:`now` at an engine (the newest network wins)."""
        self._clock = clock

    @contextmanager
    def phase(self, name: str, **tags) -> Iterator[None]:
        """Mark a named phase: emits PhaseStart/PhaseEnd and records the
        wall-clock duration in ``phase.<name>.wall_s``."""
        sim_start = self.now()
        self.emit(PhaseStart(t=sim_start, name=name, tags=dict(tags)))
        wall_start = time.perf_counter()
        try:
            yield
        finally:
            wall_s = time.perf_counter() - wall_start
            sim_end = self.now()
            self.observe(f"phase.{name}.wall_s", wall_s)
            if self.profiler is not None:
                self.profiler.record_phase(name, wall_s, max(0.0, sim_end - sim_start))
            self.emit(
                PhaseEnd(
                    t=sim_end,
                    name=name,
                    wall_s=wall_s,
                    sim_s=max(0.0, sim_end - sim_start),
                    tags=dict(tags),
                )
            )

    # ------------------------------------------------------------------
    # Reporting

    def snapshot(self) -> dict:
        """A plain-data view of every instrument (JSON-serializable)."""
        return {
            "enabled": True,
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {
                name: {"value": g.value, "max": g.max_value}
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.summary() for name, h in sorted(self.histograms.items())
            },
        }

    def mergeable_snapshot(self) -> dict:
        """A plain-data view that survives a process boundary and merges.

        Unlike :meth:`snapshot` (which summarizes histograms down to a
        few quantiles), this keeps the full bucket state so a parent
        process can fold many workers' registries together without
        losing fidelity. Feed the result to :meth:`merge_snapshot`.
        """
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {
                name: {"value": g.value, "max": g.max_value}
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {name: h.state() for name, h in sorted(self.histograms.items())},
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`mergeable_snapshot` into this
        one: counters are summed, histograms bucket-merged, and gauges
        keep the merged snapshot's last value plus the running max.
        Merging in a fixed order (the sweep's cell order) keeps the
        combined registry deterministic regardless of which worker
        finished first."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, state in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(state["max"])
            gauge.set(state["value"])
        for name, state in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_state(state)

    def render(self) -> str:
        """Human-readable metrics dump (the ``--metrics`` output)."""
        lines = ["-- telemetry ----------------------------------------"]
        for name, counter in sorted(self.counters.items()):
            lines.append(f"{name:44s} {counter.value}")
        for name, gauge in sorted(self.gauges.items()):
            lines.append(f"{name:44s} {gauge.value:g} (max {gauge.max_value:g})")
        for name, histogram in sorted(self.histograms.items()):
            s = histogram.summary()
            lines.append(
                f"{name:44s} n={s['count']} mean={s['mean']:.3g} "
                f"p50={s['p50']:.3g} p95={s['p95']:.3g} p99={s['p99']:.3g}"
            )
        if self.tracer is not None:
            lines.append(
                f"{'trace.events':44s} {len(self.tracer)}"
                + (f" (+{self.tracer.dropped} evicted)" if self.tracer.dropped else "")
            )
        return "\n".join(lines)


#: the active backend; swapped by install()/using()
_active: Telemetry | NullTelemetry = NULL


def current() -> Telemetry | NullTelemetry:
    """The telemetry backend instrumented components should capture."""
    return _active


def install(telemetry: Telemetry | NullTelemetry) -> Telemetry | NullTelemetry:
    """Make ``telemetry`` the process-wide active backend."""
    global _active
    _active = telemetry
    return telemetry


def reset() -> None:
    """Disable telemetry (restore the null backend)."""
    install(NULL)


@contextmanager
def using(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scope ``telemetry`` as the active backend for a ``with`` block."""
    previous = _active
    install(telemetry)
    try:
        yield telemetry
    finally:
        install(previous)
