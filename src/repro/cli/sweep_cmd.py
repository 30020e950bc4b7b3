"""``repro sweep`` -- the full ⟨technique, failed site⟩ matrix, sharded
over workers, with a JSON archive of every cell.

``repro compare`` prints Figure 2; this command is the batch version:
it runs the same matrix (any subset of techniques and sites), fans the
cells out over ``--workers`` processes, and writes the complete per-cell
and pooled results to disk via :mod:`repro.measurement.export`, so runs
can be diffed across revisions or analysed outside Python. The exported
document is byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.cli.common import (
    CHECK,
    EXPERIMENT,
    PREPEND,
    SITES,
    TELEMETRY,
    WORKERS,
    Command,
    Flag,
    Prologue,
    claim_output,
    print_workload_rows,
    techniques_flag,
)
from repro.measurement.export import save_json, sweep_report_to_dict
from repro.measurement.stats import summarize
from repro.parallel import matrix

#: compare's five-technique roster; the sweep default
DEFAULT_TECHNIQUES = (
    "anycast",
    "reactive-anycast",
    "proactive-prepending",
    "proactive-superprefix",
    "combined",
)


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    techniques = ctx.roster(args.techniques)
    ctx.admit(ctx.experiment_world(techniques))
    claim_output(args.output, "archive")

    cells = matrix(techniques, list(args.sites or ctx.deployment.site_names))
    report = ctx.sweep(cells)

    statuses = Counter(r.status for r in report.results)
    status_text = ", ".join(f"{n} {s}" for s, n in sorted(statuses.items()))
    print(f"sweep: {len(cells)} cells over {report.workers} worker(s) "
          f"in {report.wall_s:.1f}s ({status_text})")
    for technique in techniques:
        outcomes = [
            o for r in report.results_for(technique.name) for o in r.outcomes
        ]
        print(f"  {technique.name:26s} "
              f"failover {summarize([o.failover_s for o in outcomes]).row()}")
    if ctx.workload is not None:
        print_workload_rows(report, techniques)

    path = save_json(args.output, sweep_report_to_dict(report))
    print(f"wrote {path}")
    return 0 if report.ok else 1


COMMAND = Command(
    "sweep", "run the ⟨technique, failed site⟩ matrix and export JSON", run, flags=(
        techniques_flag(list(DEFAULT_TECHNIQUES),
                        f"techniques to sweep (default: {' '.join(DEFAULT_TECHNIQUES)})"),
        SITES,
        Flag("-o", "--output", default="sweep.json", metavar="PATH",
             help="JSON archive path (default: sweep.json)"),
        PREPEND, *EXPERIMENT, WORKERS, CHECK, TELEMETRY,
    ),
)
