"""Span tracing for the traced repeat, recorded from outside ``src/``.

The simulator already measures two things through its public telemetry
API: per-callback-kind wall/count (``EventProfiler``) and the
``telemetry.phase`` spans. This module adds what is missing for a layer
table that sums to the wall: a span (name, start, end, parent) around
each public callable at a layer boundary, installed by patching the
callable for the duration of one traced run and removed afterwards.

A span's *self* time is its duration minus its child spans minus the
engine callbacks that ran while it was innermost; callbacks are their
own rows, grouped by kind. A wrapped callable can run *inside* a
callback (``snapshot_path`` on a catchment-cache miss inside a workload
tick); such a span is subtracted from the callback's row instead, so no
second is counted twice.

Pool workers inherit the patches through fork, but their span lists die
with them; what survives is what the pool merges back -- the profiler
state and the telemetry histograms. Every span therefore also observes
``bench.<name>`` on the active telemetry backend, and per-layer totals
are read from those histograms so serial and ``-w2`` runs use one path.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Callable, Iterator

from repro.obs.profiler import EventProfiler
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.registry import Telemetry

#: slack when deciding whether a span began inside the callback that
#: just ended: the engine reads its clock a few instructions before the
#: profiler hook reads ours
_CALLBACK_SLACK_S = 5e-6

#: engine callback qualname fragment -> layer row
CALLBACK_KINDS = (
    ("_make_delivery", "bgp.deliver"),
    ("_make_mrai_expiry", "bgp.mrai_expiry"),
    ("BgpRouter.", "bgp.fib_install"),
    ("ForwardingPlane.", "dataplane.hop"),
    ("Prober.", "dataplane.probe"),
    ("WorkloadEngine._tick", "workload.tick"),
)


def callback_kind(qualname: str) -> str:
    for fragment, kind in CALLBACK_KINDS:
        if fragment in qualname:
            return kind
    return "core.other_callbacks"


def no_span(name: str):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return nullcontext()


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "callbacks_s")

    def __init__(self, id: int, name: str, start: float, parent: int) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        #: callback wall accrued while open (nested spans excluded)
        self.callbacks_s = 0.0


class _Profiler(EventProfiler):
    """EventProfiler that also keeps this process's callback wall net
    of the spans that ran inside callbacks (``merge_state`` folds pool
    workers into the inherited totals but never into ``local``)."""

    __slots__ = ("tracer", "local")

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__()
        self.tracer = tracer
        #: callback qualname -> [count, net wall seconds], in-process
        self.local: dict[str, list] = {}

    def record_callback(self, name: str, wall_s: float) -> None:
        super().record_callback(name, wall_s)
        tracer = self.tracer
        closed = tracer._closed_since_callback
        if closed:
            began = time.perf_counter() - wall_s - _CALLBACK_SLACK_S
            top = tracer._stack[-1].id if tracer._stack else -1
            for span in closed:
                if span.parent == top and span.start >= began:
                    wall_s -= span.end - span.start
            closed.clear()
        entry = self.local.get(name)
        if entry is None:
            entry = self.local[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += wall_s
        tracer._callback_wall += wall_s


class TracedTelemetry(Telemetry):
    """Telemetry whose ``phase`` spans also land in the tracer."""

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(profiler=tracer.profiler)
        self._tracer = tracer

    @contextmanager
    def phase(self, name: str, **tags) -> Iterator[None]:
        span_name = "core.phase." + name.replace("-", "_")
        with self._tracer.span(span_name), super().phase(name, **tags):
            yield


class Tracer:
    """In-memory span recorder; written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.profiler = _Profiler(self)
        self.telemetry = TracedTelemetry(self)
        #: (WorkloadEngine, duration) started during the run, kept for
        #: the cache counters and the stream parameters
        self.engines: list[tuple] = []
        self._stack: list[Span] = []
        self._closed_since_callback: list[Span] = []
        self._callback_wall = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        callbacks_before = self._callback_wall
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.callbacks_s = self._callback_wall - callbacks_before
            self._stack.pop()
            self._closed_since_callback.append(span)
            telemetry_registry.current().observe(
                "bench." + name, span.end - span.start
            )

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Telemetry on, and a span around each layer-boundary callable.

        Functions imported by name are patched where they are looked up
        (the importing module), methods on their class.
        """
        import repro.core.experiment as experiment
        import repro.parallel.sweep as sweep
        from repro.dataplane.forwarding import ForwardingPlane
        from repro.topology.generator import Topology
        from repro.workload.engine import WorkloadEngine

        targets = (
            (Topology, "build_network", "topology.build_network"),
            (ForwardingPlane, "snapshot_path", "dataplane.snapshot_path"),
            (experiment, "snapshot_network", "checkpoint.snapshot"),
            (experiment, "restore_network", "checkpoint.restore"),
            (experiment, "outcomes_for_run", "measurement.outcomes"),
            (sweep, "shared_state", "parallel.shared_state"),
        )
        engines = self.engines
        engine_start = WorkloadEngine.start

        def start_and_keep(engine, duration_s):
            engines.append((engine, duration_s))
            return engine_start(engine, duration_s)

        with ExitStack() as stack:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, original))
                stack.callback(setattr, owner, attr, original)
            WorkloadEngine.start = start_and_keep
            stack.callback(setattr, WorkloadEngine, "start", engine_start)
            stack.enter_context(telemetry_registry.using(self.telemetry))
            yield self

    # ------------------------------------------------------------------

    def span_total(self, name: str) -> tuple[float, int]:
        """(seconds, calls) of one span name, pool workers included."""
        histogram = self.telemetry.histograms.get("bench." + name)
        if histogram is None:
            return 0.0, 0
        return histogram.total, histogram.count

    def phase_total(self, name: str) -> float:
        entry = self.profiler.phases.get(name)
        return entry[1] if entry is not None else 0.0

    def callback_totals(self) -> dict[str, list]:
        """kind -> [count, wall seconds], pool workers included."""
        totals: dict[str, list] = {}
        for name, (count, wall_s) in self.profiler.callbacks.items():
            entry = totals.setdefault(callback_kind(name), [0, 0.0])
            entry[0] += count
            entry[1] += wall_s
        return totals

    def layer_table(self, root: Span) -> list[dict]:
        """One row per span name and callback kind under ``root``, with
        this process's self time; the rows sum to ``root``'s duration.
        ``root``'s own self time is the ``unattributed`` row."""
        n = len(self.spans)
        children_s = [0.0] * n
        children_callbacks_s = [0.0] * n
        inside = [False] * n
        inside[root.id] = True
        for span in self.spans[root.id + 1:]:  # parents precede children
            if span.parent >= 0 and inside[span.parent]:
                inside[span.id] = True
                children_s[span.parent] += span.end - span.start
                children_callbacks_s[span.parent] += span.callbacks_s
        rows: dict[str, list] = {}
        for span in self.spans:
            if not inside[span.id]:
                continue
            duration = span.end - span.start
            own_callbacks_s = span.callbacks_s - children_callbacks_s[span.id]
            name = "unattributed" if span is root else span.name
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - children_s[span.id] - own_callbacks_s
        # Callbacks are kept per kind for the process, not per span: a
        # root gets the share that ran inside it (all or nothing for
        # the two roots in use -- set-up runs no traced callbacks).
        local = self.profiler.local
        local_s = sum(net_s for _, net_s in local.values())
        share = root.callbacks_s / local_s if local_s else 0.0
        for name, (count, net_s) in local.items():
            if share:
                row = rows.setdefault(callback_kind(name) + " (callbacks)", [0, 0.0, 0.0])
                row[0] += round(count * share)
                row[1] += net_s * share
                row[2] += net_s * share
        wall = root.end - root.start
        table = [
            {"layer": name, "count": count, "total_s": total_s, "self_s": self_s,
             "share": self_s / wall if wall else 0.0}
            for name, (count, total_s, self_s) in rows.items()
        ]
        table.sort(key=lambda row: (-row["self_s"], row["layer"]))
        return table

    def spans_as_lists(self) -> list[list]:
        return [
            [span.id, span.name, span.start, span.end, span.parent]
            for span in self.spans
        ]
