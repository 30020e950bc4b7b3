"""Result serialization.

Experiments produce rich in-memory objects (outcomes, CDFs, sweep
tables). This module renders them to plain JSON-able dictionaries so
runs can be archived, diffed across revisions, or analysed outside
Python -- the usual workflow around a measurement paper's artefacts.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import TYPE_CHECKING, Any

from repro.measurement.stats import Cdf

if TYPE_CHECKING:
    # Annotation-only: core.experiment imports this package for the
    # catchment and hitlist, so a runtime import here would be a cycle.
    from repro.core.experiment import SiteFailoverResult
    from repro.core.metrics import TargetOutcome


def _finite(value: float | None) -> float | None:
    """JSON has no inf; censored/absent values serialize as None."""
    if value is None or not math.isfinite(value):
        return None
    return value


def outcome_to_dict(outcome: TargetOutcome) -> dict[str, Any]:
    return {
        "target": str(outcome.target),
        "failed_site": outcome.failed_site,
        "reconnection_s": _finite(outcome.reconnection_s),
        "failover_s": _finite(outcome.failover_s),
        "bounces": outcome.bounces,
        "disconnections": outcome.disconnections,
        "final_site": outcome.final_site,
    }


def cdf_to_dict(cdf: Cdf) -> dict[str, Any]:
    xs, ys = cdf.series()
    payload: dict[str, Any] = {
        "n": cdf.n,
        "censored": cdf.censored,
        "points": [[x, y] for x, y in zip(xs, ys)],
    }
    if cdf.n:
        payload["p50"] = _finite(cdf.median())
        payload["p90"] = _finite(cdf.quantile(0.9))
    return payload


def failover_result_to_dict(result: SiteFailoverResult) -> dict[str, Any]:
    payload = {
        "technique": result.technique,
        "site": result.site,
        "withdrawal_time": result.withdrawal_time,
        "targets_selected": len(result.selection.targets),
        "controllable": len(result.controllable),
        "controllable_frac": result.controllable_frac,
        "outcomes": [outcome_to_dict(o) for o in result.outcomes],
        "reconnection_cdf": cdf_to_dict(
            Cdf.from_optional([o.reconnection_s for o in result.outcomes])
        ),
        "failover_cdf": cdf_to_dict(
            Cdf.from_optional([o.failover_s for o in result.outcomes])
        ),
    }
    # Optional key: only --workload runs carry request-level accounting,
    # so workload-free archives stay byte-identical to older revisions.
    if result.workload is not None:
        payload["workload"] = result.workload.to_dict()
    return payload


def cell_result_to_dict(cell: Any, result: Any) -> dict[str, Any]:
    """One sweep cell: its identity, pool status, and (when the cell
    succeeded) the full failover result payload.

    ``cell`` is a :class:`repro.parallel.sweep.SweepCell` and ``result``
    a :class:`repro.parallel.pool.CellResult`; typed as ``Any`` to keep
    this module import-light (repro.parallel imports repro.core, which
    this module also feeds).
    """
    payload: dict[str, Any] = {
        "cell": result.cell_id,
        "technique": cell.technique.name,
        "site": cell.site,
        "status": result.status,
        "wall_s": result.wall_s,
    }
    if result.ok:
        payload["result"] = failover_result_to_dict(result.value)
    else:
        payload["error"] = result.error
    return payload


def sweep_report_to_dict(report: Any) -> dict[str, Any]:
    """Archive a full sweep: per-cell payloads plus per-technique pooled
    outcomes and CDFs (the Fig. 2 artefacts).

    The pooled sections are derived from results merged in cell order,
    so the document is byte-identical for any worker count.
    """
    technique_names: list[str] = []
    for cell in report.cells:
        if cell.technique.name not in technique_names:
            technique_names.append(cell.technique.name)
    pooled: dict[str, Any] = {}
    for name in technique_names:
        results = report.results_for(name)
        outcomes = [o for r in results for o in r.outcomes]
        pooled[name] = {
            "outcomes": [outcome_to_dict(o) for o in outcomes],
            "reconnection_cdf": cdf_to_dict(
                Cdf.from_optional([o.reconnection_s for o in outcomes])
            ),
            "failover_cdf": cdf_to_dict(
                Cdf.from_optional([o.failover_s for o in outcomes])
            ),
        }
        accounts = [r.workload for r in results if r.workload is not None]
        if accounts:
            from repro.workload.engine import merge_accounts

            pooled[name]["workload"] = merge_accounts(accounts).to_dict()
    return {
        "workers": report.workers,
        "wall_s": report.wall_s,
        "cells": [
            cell_result_to_dict(cell, result)
            for cell, result in zip(report.cells, report.results)
        ],
        "pooled": pooled,
    }


def save_json(path: str | pathlib.Path, payload: Any) -> pathlib.Path:
    """Write a JSON document (pretty-printed, stable key order)."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
