"""``repro failover`` -- fail one site under one technique (§5.2)."""

from __future__ import annotations

import argparse
from collections import Counter

from repro.cli.common import (
    CHECK,
    EXPERIMENT,
    PREPEND,
    TELEMETRY,
    WORKERS,
    Command,
    Prologue,
    Site,
    technique_flag,
)
from repro.measurement.stats import summarize


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    technique = ctx.technique
    ctx.admit(ctx.experiment_world([technique], args.site))
    print(f"failing {args.site} under {technique.name} "
          f"({'silent' if args.silent else 'withdrawing'} failure) ...")
    # One cell, run through the sweep at every --workers: a cell that
    # raises is a `sweep: cell ... error` line and exit 1, and with
    # workers the run also gets crash isolation and the per-cell timeout.
    from repro.parallel import SweepCell

    report = ctx.sweep([SweepCell(technique, args.site)])
    if not report.ok:
        return 1
    (result,) = report.site_results()
    print(f"selected {len(result.selection.targets)} targets, "
          f"{len(result.controllable)} controllable pre-failure")
    print(f"reconnection: {summarize([o.reconnection_s for o in result.outcomes]).row()}")
    print(f"failover:     {summarize([o.failover_s for o in result.outcomes]).row()}")
    landing = Counter(o.final_site for o in result.outcomes)
    print(f"serving sites after failover: {dict(landing)}")
    if result.workload is not None:
        from repro.workload import render_account

        print(render_account(result.workload))
    return 0


COMMAND = Command(
    "failover", "fail one site under one technique and measure recovery", run, flags=(
        technique_flag("reactive-anycast"), Site("-s", "--site", default="sea1"), PREPEND,
        *EXPERIMENT, WORKERS, CHECK, TELEMETRY,
    ),
)
