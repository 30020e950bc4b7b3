"""Zero-dependency instrumentation for the simulation stack.

Three cooperating pieces:

* :mod:`repro.telemetry.metrics` -- counters, gauges, and streaming
  histograms (p50/p95/p99 without storing samples);
* :mod:`repro.telemetry.trace` -- typed trace events stamped with
  simulated time, a bounded/unbounded recorder, and JSONL persistence;
* :mod:`repro.telemetry.registry` -- the process-wide active backend.
  Components capture :func:`current` at construction; when telemetry is
  disabled they hold the shared :data:`NULL` backend and every
  instrumentation site costs one attribute check.

Typical enablement (what the CLI's ``--trace``/``--metrics`` do)::

    from repro import telemetry

    tracer = telemetry.TraceRecorder()
    with telemetry.using(telemetry.Telemetry(tracer=tracer)):
        result = experiment.run_site(technique, site)
    tracer.write_jsonl("out.jsonl")

See ``docs/observability.md`` for the full guide.
"""

from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.registry import (
    NULL,
    NullTelemetry,
    Telemetry,
    current,
    install,
    reset,
    using,
)
from repro.telemetry.summary import (
    PhaseTable,
    TraceSummary,
    filter_events,
    render_summary,
    summarize_trace,
)
from repro.telemetry.trace import (
    EVENT_TYPES,
    BgpUpdateSent,
    CellEnd,
    CellStart,
    FaultInjected,
    FaultSkipped,
    FibInstalled,
    FlapDamped,
    PhaseEnd,
    PhaseStart,
    ProbeLost,
    ProbeReply,
    ProbeSent,
    RootCause,
    RouteSelected,
    SiteFailed,
    SiteSwitched,
    TraceEvent,
    TraceMeta,
    TraceRecorder,
    event_from_dict,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "current",
    "install",
    "reset",
    "using",
    "PhaseTable",
    "TraceSummary",
    "filter_events",
    "render_summary",
    "summarize_trace",
    "EVENT_TYPES",
    "BgpUpdateSent",
    "CellEnd",
    "CellStart",
    "FaultInjected",
    "FaultSkipped",
    "FibInstalled",
    "FlapDamped",
    "PhaseEnd",
    "PhaseStart",
    "ProbeLost",
    "ProbeReply",
    "ProbeSent",
    "RootCause",
    "RouteSelected",
    "SiteFailed",
    "SiteSwitched",
    "TraceEvent",
    "TraceMeta",
    "TraceRecorder",
    "event_from_dict",
    "read_jsonl",
    "write_jsonl",
]
