"""``repro drill`` -- the §4 pre-failure rotation drill."""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import (
    CHECK,
    FAULTS,
    TELEMETRY,
    WORKERS,
    WORKLOAD,
    Command,
    Flag,
    Prologue,
    positive_int,
    technique_flag,
)
from repro.core.drill import RotationDrill
from repro.faults import timeline
from repro.verify import VerifyWorld


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    deployment = ctx.deployment
    clients = [
        info.node_id for info in deployment.topology.web_client_ases()
    ][: args.clients]
    drill = RotationDrill(
        deployment.topology, deployment, ctx.technique,
        deadline_s=args.deadline, seed=args.seed,
        fault_plan=ctx.faults, check_invariants=args.check_invariants,
        workload=ctx.workload, capacity=ctx.capacity,
    )
    ctx.admit(VerifyWorld(
        deployment=deployment, techniques=[drill.technique],
        timeline=timeline(drill.fault_plan), duration=drill.deadline_s,
        workload=drill.workload, capacity=drill.capacity, source="<run>",
    ))
    try:
        outcomes = drill.run_rotation(clients, **ctx.pool(len(deployment.site_names)))
    except RuntimeError as error:
        print(f"drill aborted: {error}", file=sys.stderr)
        return 2
    total_violations = 0
    for outcome in outcomes:
        if outcome.passed:
            status = "PASS"
        elif outcome.stranded:
            status = f"FAIL ({outcome.stranded} stranded)"
        else:
            status = f"FAIL ({len(outcome.violations)} invariant violations)"
        chaos = ""
        if ctx.faults is not None:
            chaos = f"  faults {outcome.faults_injected}"
            if outcome.faults_skipped:
                chaos += f" (+{outcome.faults_skipped} skipped)"
        print(
            f"  {outcome.site:6s} recovered {outcome.recovered:3d}/{len(clients)}"
            f"{chaos}  {status}"
        )
        if outcome.workload is not None:
            from repro.workload import render_account

            print(f"         {render_account(outcome.workload)}")
        total_violations += len(outcome.violations)
        for violation in outcome.violations:
            print(f"         invariant: {violation}")
    if args.check_invariants:
        print(f"invariant violations: {total_violations}")
    print("rotation verdict:", "all sites pass" if drill.all_passed() else "FAILURES")
    return 0 if drill.all_passed() else 1


COMMAND = Command(
    "drill", "rotate a test-prefix failure through every site (§4)", run, flags=(
        technique_flag("reactive-anycast"),
        Flag("--deadline", type=float, default=120.0,
             help="recovery deadline per site (sim s)"),
        Flag("--clients", type=positive_int, default=25, help="monitored client ASes"),
        FAULTS,
        Flag("--check-invariants", action="store_true",
             help="audit forwarding loops, advertised-sync, and RIB/FIB "
                  "coherence after each site's drill settles"),
        *WORKLOAD, WORKERS, CHECK, TELEMETRY,
    ),
)
