"""Observability layer: provenance, availability accounting, profiling.

Three pure-analysis pieces on top of the telemetry substrate:

* :mod:`repro.obs.provenance` -- reconstruct causal chains (root action
  -> BGP updates -> route re-selection -> FIB install -> DNS / catchment
  shift) from a recorded trace; backs ``repro explain``;
* :mod:`repro.obs.ledger` -- fold probe events into classified outage
  intervals and user-seconds-lost per technique; backs ``repro report``;
* :mod:`repro.obs.profiler` -- per-event-kind wall-clock attribution
  inside the event engine; backs ``--profile`` and ``repro profile``.

See ``docs/observability.md`` for the full guide.
"""

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    OUTAGE_CLASSES,
    AvailabilityLedger,
    Outage,
    render_report,
)
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    EventProfiler,
    callback_name,
    render_profile,
    watch_collector,
)
from repro.obs.provenance import (
    CauseChain,
    build_chains,
    explain,
    render_explanation,
)

__all__ = [
    "LEDGER_SCHEMA",
    "OUTAGE_CLASSES",
    "AvailabilityLedger",
    "Outage",
    "render_report",
    "PROFILE_SCHEMA",
    "EventProfiler",
    "callback_name",
    "render_profile",
    "watch_collector",
    "CauseChain",
    "build_chains",
    "explain",
    "render_explanation",
]
