"""Multiprocess sweep execution with deterministic result merge.

Two layers:

* :mod:`repro.parallel.pool` -- a generic, crash-isolated worker pool
  (:func:`map_cells`): per-cell timeouts, dead-worker replacement, and
  telemetry snapshot/trace merge, with results returned in cell order;
* :mod:`repro.parallel.sweep` -- the failover-experiment sweep built on
  it: the ⟨technique, failed site⟩ matrix, the cache-warm experiment
  shipped to workers, and the :class:`SweepReport` the CLI and
  exporters consume.

See ``docs/parallel.md`` for the worker model and the determinism
guarantees.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "STATUS_CRASHED": ".pool",
    "STATUS_ERROR": ".pool",
    "STATUS_OK": ".pool",
    "STATUS_TIMEOUT": ".pool",
    "CellResult": ".pool",
    "CellTelemetry": ".pool",
    "collector_paused": ".pool",
    "map_cells": ".pool",
    "merge_telemetry": ".pool",
    "ProgressPrinter": ".progress",
    "SweepCell": ".sweep",
    "SweepReport": ".sweep",
    "matrix": ".sweep",
    "run_sweep": ".sweep",
    "shared_state": ".sweep",
})
