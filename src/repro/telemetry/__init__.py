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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "NULL": ".registry",
    "NullTelemetry": ".registry",
    "Telemetry": ".registry",
    "current": ".registry",
    "install": ".registry",
    "reset": ".registry",
    "using": ".registry",
    "PhaseTable": ".summary",
    "TraceSummary": ".summary",
    "filter_events": ".summary",
    "render_summary": ".summary",
    "summarize_trace": ".summary",
    "EVENT_TYPES": ".trace",
    "BgpUpdateSent": ".trace",
    "CellEnd": ".trace",
    "CellStart": ".trace",
    "FaultInjected": ".trace",
    "FaultSkipped": ".trace",
    "FibInstalled": ".trace",
    "FlapDamped": ".trace",
    "PhaseEnd": ".trace",
    "PhaseStart": ".trace",
    "ProbeLost": ".trace",
    "ProbeReply": ".trace",
    "ProbeSent": ".trace",
    "RootCause": ".trace",
    "RouteSelected": ".trace",
    "SiteFailed": ".trace",
    "SiteSwitched": ".trace",
    "TraceEvent": ".trace",
    "TraceMeta": ".trace",
    "TraceRecorder": ".trace",
    "event_from_dict": ".trace",
    "read_jsonl": ".trace",
    "write_jsonl": ".trace",
})
