"""``repro failover`` -- fail one site under one technique (§5.2)."""

from __future__ import annotations

import argparse
import logging
from collections import Counter

from repro.cli.common import (
    add_parallel_arguments,
    add_preflight_arguments,
    add_telemetry_arguments,
    add_workload_arguments,
    cell_timeout,
    gate,
    known_sites,
    positive_int,
    report_sweep_failures,
    resolve_capacity,
    resolve_workload,
    telemetry_session,
)
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import TECHNIQUES, technique_by_name
from repro.measurement.stats import summarize
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment
from repro.verify import VerifyWorld

logger = logging.getLogger(__name__)


def add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--targets", type=positive_int, default=20, help="targets per site"
    )
    parser.add_argument(
        "--duration", type=float, default=300.0, help="probing window (sim s)"
    )
    parser.add_argument(
        "--detection-delay", type=float, default=2.0,
        help="monitoring reaction time (sim s)",
    )
    parser.add_argument(
        "--silent", action="store_true",
        help="silent failure: the site cannot withdraw its own prefixes",
    )
    parser.add_argument(
        "--no-checkpoint", action="store_true",
        help="cold-start every cell's baseline convergence instead of "
             "forking the per-technique checkpoint (slower; the legacy "
             "numerics -- see docs/checkpoint.md)",
    )
    add_workload_arguments(parser)


def make_experiment(args: argparse.Namespace) -> FailoverExperiment:
    deployment = build_deployment(params=TopologyParams(seed=args.seed))
    config = FailoverConfig(
        probe_duration=args.duration,
        targets_per_site=args.targets,
        detection_delay=args.detection_delay,
        seed=args.seed,
        silent_failure=args.silent,
        workload=resolve_workload(args),
        capacity=resolve_capacity(args),
    )
    return FailoverExperiment(
        deployment.topology,
        deployment,
        config,
        use_checkpoint=not args.no_checkpoint,
    )


def experiment_world(
    experiment: FailoverExperiment, techniques, specific_site: str | None = None
) -> VerifyWorld:
    """The run ``experiment`` is about to make, as the gate's one world."""
    config = experiment.config
    return VerifyWorld(
        deployment=experiment.deployment, techniques=techniques,
        specific_site=specific_site, duration=config.probe_duration,
        detection_delay=config.detection_delay, timing=config.timing,
        damping=config.damping, workload=config.workload,
        capacity=config.capacity, source="<run>",
    )


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "failover", help="fail one site under one technique and measure recovery"
    )
    parser.add_argument(
        "-t", "--technique", choices=sorted(TECHNIQUES), default="reactive-anycast"
    )
    parser.add_argument("-s", "--site", default="sea1")
    parser.add_argument("--prepend", type=positive_int, default=3,
                        help="prepend count for proactive-prepending")
    add_scale_arguments(parser)
    add_parallel_arguments(parser)
    add_preflight_arguments(parser)
    add_telemetry_arguments(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    kwargs = {"prepend": args.prepend} if args.technique == "proactive-prepending" else {}
    technique = technique_by_name(args.technique, **kwargs)

    with telemetry_session(args):
        experiment = make_experiment(args)
        if not known_sites(experiment.deployment, [args.site]):
            return 2
        if not gate(args, experiment_world(experiment, [technique], args.site)):
            return 2
        print(f"failing {args.site} under {technique.name} "
              f"({'silent' if args.silent else 'withdrawing'} failure) ...")
        if args.workers > 1:
            # One cell, but run through the pool: the run gets crash
            # isolation and the per-cell timeout instead of hanging.
            from repro.parallel import SweepCell, run_sweep

            report = run_sweep(
                experiment, [SweepCell(technique, args.site)],
                workers=args.workers, timeout_s=cell_timeout(args),
            )
            if not report.ok:
                report_sweep_failures(report)
                return 1
            result = report.site_results()[0]
        else:
            result = experiment.run_site(technique, args.site)
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
