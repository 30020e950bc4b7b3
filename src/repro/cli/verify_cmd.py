"""``repro verify`` -- the static control-plane verifier as a CLI gate.

Verifies world fixtures (JSON files) or, with no paths, the shipped
testbed deployment at ``--seed``. Exit status: 0 when no blocking
findings survive suppression (warnings are advisory, as in pre-flight),
1 when errors remain, 2 on usage errors (a ``--duration`` the
pre-flight run-shape row refuses included).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import render_json, render_text
from repro.analysis.findings import Finding
from repro.analysis.preflight import check_run_shape
from repro.cli.common import (
    FAULTS,
    PREPEND,
    METRICS,
    Catalogue,
    Command,
    Flag,
    Prologue,
    Site,
    techniques_flag,
)
from repro.verify import (
    CHECKS,
    DEFAULT_TECHNIQUE_NAMES,
    default_world,
    load_world,
    resolve_codes,
    verify_world,
)


def _check_lines():
    for code, check in CHECKS.items():
        profile = " (strict)" if check.strict_only else ""
        yield (f"{code}  {check.name:20s} [{check.severity.value:7s}] "
               f"{check.summary}{profile}")


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    shape = check_run_shape(args.duration)
    for finding in shape:
        print(f"preflight: {finding.format()}", file=sys.stderr)
    if shape:
        return 2
    if args.worlds:
        try:
            worlds = [load_world(path) for path in args.worlds]
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    else:
        names = DEFAULT_TECHNIQUE_NAMES if args.techniques is None else args.techniques
        worlds = [default_world(
            ctx.deployment, ctx.roster(names), specific_site=args.site,
            fault_plan=ctx.faults, duration=args.duration,
        )]
    findings: list[Finding] = []
    errors = False
    for world in worlds:
        report = verify_world(
            world, select=ctx.select, ignore=ctx.ignore, strict=args.strict
        )
        findings.extend(report.findings)
        errors = errors or not report.ok

    if args.format == "json":
        print(render_json(findings))
    else:
        print(f"{len(worlds)} world(s) checked")
        print(render_text(findings))
    return 1 if errors else 0


COMMAND = Command(
    "verify", "statically verify worlds/plans without running the engine (VER rules)", run,
    flags=(
        Flag("worlds", nargs="*", metavar="WORLD",
             help="world fixture JSON files (default: the testbed deployment "
                  "at --seed)"),
        techniques_flag(None, "techniques to verify on the default world (default: the "
                              "Figure-2 roster plus unicast); ignored for fixture worlds"),
        PREPEND,
        Site("-s", "--site", default=None,
             help="specific/intended site for the default world's plans"),
        FAULTS,
        Flag("--duration", type=float, default=None,
             help="experiment duration the plans run under (enables "
                  "duration-relative checks)"),
        Flag("--strict", action="store_true",
             help="also report opportunity-cost findings (VER212/VER223) "
                  "that flag lost control rather than misconfiguration"),
        Catalogue("check", _check_lines, resolve_codes, inputs="worlds"),
        METRICS,
    ),
)
