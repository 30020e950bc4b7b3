"""Observability layer: provenance, availability accounting, profiling.

Three pure-analysis pieces on top of the telemetry substrate:

* :mod:`repro.obs.provenance` -- reconstruct causal chains (root action
  -> BGP updates -> route re-selection -> FIB install -> catchment
  shift) from a recorded trace; backs ``repro explain``;
* :mod:`repro.obs.ledger` -- fold probe events into classified outage
  intervals, and probe and workload events into one downtime and one
  request row per ⟨technique, site⟩; backs ``repro report``;
* :mod:`repro.obs.profiler` -- per-event-kind wall-clock attribution
  inside the event engine; backs ``--profile`` and ``repro profile``.

See ``docs/observability.md`` for the full guide.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "LEDGER_SCHEMA": ".ledger",
    "OUTAGE_CLASSES": ".ledger",
    "AvailabilityLedger": ".ledger",
    "Outage": ".ledger",
    "OutageTally": ".ledger",
    "render_report": ".ledger",
    "PROFILE_SCHEMA": ".profiler",
    "EventProfiler": ".profiler",
    "render_profile": ".profiler",
    "watch_collector": ".profiler",
    "CauseChain": ".provenance",
    "build_chains": ".provenance",
    "explain": ".provenance",
    "render_explanation": ".provenance",
})
