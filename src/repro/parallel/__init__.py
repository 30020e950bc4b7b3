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

from repro.parallel.pool import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellResult,
    CellTelemetry,
    map_cells,
    merge_telemetry,
)
from repro.parallel.progress import ProgressPrinter
from repro.parallel.sweep import (
    SweepCell,
    SweepReport,
    matrix,
    run_sweep,
    shared_state,
)

__all__ = [
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "CellResult",
    "CellTelemetry",
    "map_cells",
    "merge_telemetry",
    "ProgressPrinter",
    "SweepCell",
    "SweepReport",
    "matrix",
    "run_sweep",
    "shared_state",
]
