"""``repro compare`` -- Figure-2-style technique sweep with ASCII CDFs."""

from __future__ import annotations

import argparse

from repro.cli.common import (
    CHECK,
    EXPERIMENT,
    SITES,
    TELEMETRY,
    WORKERS,
    Command,
    Prologue,
    print_workload_rows,
)
from repro.core.experiment import pooled_outcomes
from repro.core.techniques import (
    Anycast,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
    ShedDns,
    ShedPrepend,
    ShedWithdraw,
)
from repro.measurement.plotting import render_cdfs
from repro.measurement.stats import Cdf
from repro.parallel import matrix


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    techniques = [
        Anycast(), ReactiveAnycast(), ProactivePrepending(3), ProactiveSuperprefix(),
    ]
    if ctx.workload is not None:
        # Load-shedding variants only differentiate themselves under
        # offered load; without --workload they are anycast clones.
        techniques.extend([ShedPrepend(), ShedWithdraw(), ShedDns()])
    ctx.admit(ctx.experiment_world(techniques))

    # The full ⟨technique, site⟩ matrix runs as one sweep so --workers
    # shards across all cells; results come back in matrix order and
    # are grouped per technique below, so the output is byte-identical
    # for any worker count.
    report = ctx.sweep(matrix(techniques, list(args.sites or ctx.deployment.site_names)))

    failover_cdfs: dict[str, Cdf] = {}
    print(f"{'technique':26s} {'n':>4s} {'recon p50':>10s} {'fo p50':>8s} {'fo p90':>8s}")
    for technique in techniques:
        results = report.results_for(technique.name)
        if not results:
            print(f"{technique.name:26s} {'-':>4s}  (all cells failed)")
            continue
        outcomes = pooled_outcomes(results)
        recon = Cdf.from_optional([o.reconnection_s for o in outcomes])
        failover = Cdf.from_optional([o.failover_s for o in outcomes])
        failover_cdfs[technique.name] = failover
        print(f"{technique.name:26s} {recon.n:4d} {recon.median():9.1f}s "
              f"{failover.median():7.1f}s {failover.quantile(0.9):7.1f}s")

    if ctx.workload is not None:
        print("\nworkload (requests) per technique:")
        print_workload_rows(report, techniques)

    print("\nfailover time CDF across <failed site, target>:")
    print(render_cdfs(failover_cdfs))
    return 0 if report.ok else 1


COMMAND = Command(
    "compare", "compare all techniques' failover (Figure 2)", run, flags=(
        SITES, *EXPERIMENT, WORKERS, CHECK, TELEMETRY,
    ),
)
