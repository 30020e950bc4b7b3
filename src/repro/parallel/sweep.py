"""The parallel ⟨technique, failed site⟩ sweep (Fig. 2 / Tables 1-2).

Each cell of the paper's headline matrix is one independent
:meth:`~repro.core.experiment.FailoverExperiment.run_site` simulation.
:func:`run_sweep` shards those cells over :func:`repro.parallel.pool.
map_cells` workers and merges the results deterministically.

Determinism guarantees (what makes ``--workers N`` byte-identical to
``--workers 1``):

* every piece of state a cell depends on -- topology, deployment,
  config, the anycast catchment, the hitlist, each site's target
  selection and each technique's baseline snapshot -- is computed
  **once in the parent**, on the experiment itself, and the experiment
  is what the workers are shipped (:func:`shared_state`), so no worker
  ever recomputes (or worse, re-derives differently) shared state;
* the per-cell seed is derived in :meth:`run_site` from the cell's own
  ⟨technique, site⟩ name via crc32, never from worker identity,
  scheduling order, or wall time;
* results are merged in cell order, not completion order.

A worker runs a cell by calling ``run_site`` on its copy of that
experiment, which is exactly what the serial path does on the original.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.experiment import FailoverExperiment, SiteFailoverResult
from repro.core.techniques import Technique
from repro.parallel.pool import CellResult, map_cells


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One ⟨technique, failed site⟩ cell of the sweep matrix."""

    technique: Technique
    site: str

    @property
    def cell_id(self) -> str:
        return f"{self.technique.name}/{self.site}"


def matrix(techniques: list[Technique], sites: list[str]) -> list[SweepCell]:
    """The full technique-major cell matrix, in deterministic order."""
    return [SweepCell(technique, site) for technique in techniques for site in sites]


def shared_state(
    experiment: FailoverExperiment, cells: list[SweepCell]
) -> FailoverExperiment:
    """``experiment`` with everything ``cells`` share already computed.

    Forces the experiment's catchment/hitlist/selection caches for each
    cell's ⟨site, selection mode⟩ -- and, on the checkpoint path, each
    technique's converged baseline snapshot -- so workers receive them
    ready-made.
    """
    for cell in cells:
        experiment.selection_for(cell.site, mode=cell.technique.selection_mode)
    if experiment.use_checkpoint:
        for cell in cells:
            experiment.baseline_for(cell.technique)
    return experiment


def _run_cell(experiment: FailoverExperiment, cell: SweepCell) -> SiteFailoverResult:
    """Worker entry point: one cell."""
    return experiment.run_site(cell.technique, cell.site)


@dataclass(slots=True)
class SweepReport:
    """All cell outcomes of one sweep, in matrix order."""

    cells: list[SweepCell]
    results: list[CellResult]
    workers: int
    wall_s: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[CellResult]:
        return [r for r in self.results if not r.ok]

    def site_results(self) -> list[SiteFailoverResult]:
        """Successful :class:`SiteFailoverResult`s, in cell order."""
        return [r.value for r in self.results if r.ok]

    def results_for(self, technique_name: str) -> list[SiteFailoverResult]:
        """One technique's successful results, in site order."""
        return [
            result.value
            for cell, result in zip(self.cells, self.results)
            if result.ok and cell.technique.name == technique_name
        ]

    def raise_on_failure(self) -> None:
        failures = self.failures()
        if failures:
            summary = "; ".join(f"{r.cell_id}: {r.status}" for r in failures)
            raise RuntimeError(f"{len(failures)} sweep cell(s) failed: {summary}")


def run_sweep(
    experiment: FailoverExperiment,
    cells: list[SweepCell],
    *,
    workers: int = 1,
    timeout_s: float | None = None,
    progress=None,
) -> SweepReport:
    """Run every cell and return a :class:`SweepReport`.

    ``workers=1`` runs in-process (the serial path); higher values shard
    cells over worker processes. ``timeout_s`` bounds each cell's host
    wall-clock time when workers are in play; an overdue or crashed cell
    is reported as failed instead of hanging the sweep.
    """
    shared = shared_state(experiment, cells)
    start = time.perf_counter()  # repro: noqa[DET004]
    results = map_cells(
        _run_cell,
        shared,
        [(cell.cell_id, cell) for cell in cells],
        workers=workers,
        timeout_s=timeout_s,
        progress=progress,
    )
    wall_s = time.perf_counter() - start  # repro: noqa[DET004]
    return SweepReport(cells=cells, results=results, workers=max(1, workers), wall_s=wall_s)
