"""``repro scenario`` -- availability timeline through a scripted episode."""

from __future__ import annotations

import argparse
import logging
import sys

from repro.cli.common import (
    CHECK,
    FAULTS,
    TELEMETRY,
    WORKLOAD,
    Command,
    Flag,
    Prologue,
    Site,
    technique_flag,
)
from repro.core.scenarios import ScenarioRunner
from repro.faults import ACTIONS, Action, timeline
from repro.measurement.catchment import anycast_catchment
from repro.verify import VerifyWorld

logger = logging.getLogger(__name__)


def _parse_event(text: str) -> Action:
    """Parse ``KIND:SITE@TIME`` (e.g. ``fail:sea1@60``) into the site
    action it spells."""
    kind_site, _, at_text = text.partition("@")
    kind, _, site = kind_site.partition(":")
    try:
        event = Action(float(at_text), kind, site)
        if ACTIONS[event.action] != "site":
            raise ValueError(f"{kind!r} does not act on a site")
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"bad event {text!r} ({error}); expected KIND:SITE@TIME "
            "(e.g. fail:sea1@60)"
        ) from error
    return event


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    try:
        events = args.event or [Action(args.duration / 4, "fail", args.site)]
    except ValueError as error:
        print(f"bad --duration {args.duration:g}: {error}", file=sys.stderr)
        return 2
    deployment = ctx.deployment
    runner = ScenarioRunner(
        topology=deployment.topology,
        deployment=deployment,
        technique=ctx.technique,
        specific_site=args.site,
        events=events,
        duration_s=args.duration,
        bucket_s=10.0,
        recovery_grace=args.grace,
        seed=args.seed,
        fault_plan=ctx.faults,
        workload=ctx.workload,
        capacity=ctx.capacity,
    )
    ctx.admit(VerifyWorld(
        deployment=deployment, techniques=[runner.technique],
        specific_site=runner.specific_site,
        timeline=timeline(runner.fault_plan, runner.events),
        duration=runner.duration_s, recovery_grace=runner.recovery_grace,
        timing=runner.timing,
        workload=runner.workload, capacity=runner.capacity, source="<run>",
    ))
    catchment = anycast_catchment(deployment.topology, deployment)
    targets = [n for n, s in catchment.items() if s == args.site][:15]
    if targets:
        runner.target_nodes = targets
    else:
        logger.warning(
            "site %r has an empty anycast catchment; using the default target set",
            args.site,
        )

    result = runner.run()
    if ctx.faults is not None:
        line = f"faults injected: {result.faults_injected}"
        if result.faults_skipped:
            line += f" ({result.faults_skipped} skipped)"
        print(line)
    availability = result.availability()
    glyphs = " ._-=^#"
    spark = "".join(
        glyphs[min(len(glyphs) - 1, int(v * (len(glyphs) - 1)))] for v in availability
    )
    print("events: " + ", ".join(f"{e.spelling} {e.target}@{e.at:.0f}s" for e in result.events))
    print(f"availability |{spark}| (one char per {result.bucket_s:.0f}s)")
    print(f"mean availability: {result.mean_availability():.1%}")
    print(f"downtime (<50% served): {result.downtime_s():.0f}s")
    if result.workload is not None:
        from repro.workload import render_account

        print(render_account(result.workload))
    if result.capacity_evaluated:
        if result.capacity_violations:
            print(
                f"capacity invariant: "
                f"{len(result.capacity_violations)} violation(s)"
            )
            for line in result.capacity_violations:
                print(f"  {line}")
        else:
            print("capacity invariant: ok")
    return 0


COMMAND = Command(
    "scenario", "replay a failure/recovery timeline and chart availability", run, flags=(
        technique_flag("reactive-anycast"),
        Site("-s", "--site", default="sea1", help="intended/specific site"),
        Flag("-e", "--event", action="append", type=_parse_event, default=None,
             metavar="KIND:SITE@TIME",
             help="fail:sea1@60, fail-silent:sea1@60, recover:sea1@200, "
                  "drain:sea1@60, undrain:sea1@200, brownout:sea1@60, or "
                  "unbrownout:sea1@200 (repeatable; brownouts need --capacity)"),
        Flag("--duration", type=float, default=300.0),
        Flag("--grace", type=float, default=30.0, help="make-before-break recovery grace (s)"),
        FAULTS, *WORKLOAD, CHECK, TELEMETRY,
    ),
)
