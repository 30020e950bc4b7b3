"""``repro compare`` -- Figure-2-style technique sweep with ASCII CDFs."""

from __future__ import annotations

import argparse

from repro.cli.common import (
    add_parallel_arguments,
    add_preflight_arguments,
    add_telemetry_arguments,
    cell_timeout,
    gate,
    known_sites,
    print_workload_rows,
    report_sweep_failures,
    sweep_progress,
    telemetry_session,
)
from repro.cli.failover import add_scale_arguments, experiment_world, make_experiment
from repro.core.experiment import pooled_outcomes
from repro.core.techniques import (
    Anycast,
    Combined,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
    ShedDns,
    ShedPrepend,
    ShedWithdraw,
)
from repro.measurement.plotting import render_cdfs
from repro.measurement.stats import Cdf
from repro.parallel import matrix, run_sweep


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "compare", help="compare all techniques' failover (Figure 2)"
    )
    parser.add_argument(
        "--sites", nargs="*", default=None,
        help="sites to fail (default: all eight)",
    )
    parser.add_argument(
        "--include-combined", action="store_true",
        help="also run the §4 combined technique",
    )
    add_scale_arguments(parser)
    add_parallel_arguments(parser)
    add_preflight_arguments(parser)
    add_telemetry_arguments(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    with telemetry_session(args):
        experiment = make_experiment(args)
        sites = args.sites or experiment.deployment.site_names
        if not known_sites(experiment.deployment, sites):
            return 2
        techniques = [
            Anycast(), ReactiveAnycast(), ProactivePrepending(3), ProactiveSuperprefix(),
        ]
        if args.include_combined:
            techniques.append(Combined())
        if experiment.config.workload is not None:
            # Load-shedding variants only differentiate themselves under
            # offered load; without --workload they are anycast clones.
            techniques.extend([ShedPrepend(), ShedWithdraw(), ShedDns()])
        if not gate(args, experiment_world(experiment, techniques)):
            return 2

        # The full ⟨technique, site⟩ matrix runs as one sweep so --workers
        # shards across all cells; results come back in matrix order and
        # are grouped per technique below, so the output is byte-identical
        # for any worker count.
        cells = matrix(techniques, list(sites))
        report = run_sweep(
            experiment, cells,
            workers=args.workers,
            timeout_s=cell_timeout(args),
            progress=sweep_progress(args, len(cells)),
        )
        report_sweep_failures(report)

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

        if experiment.config.workload is not None:
            print("\nworkload (requests) per technique:")
            print_workload_rows(report, techniques)

        print("\nfailover time CDF across <failed site, target>:")
        print(render_cdfs(failover_cdfs))
    return 0 if report.ok else 1
