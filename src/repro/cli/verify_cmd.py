"""``repro verify`` -- the static control-plane verifier as a CLI gate.

Verifies world fixtures (JSON files) or, with no paths, the shipped
testbed deployment at ``--seed``. Exit status: 0 when no blocking
findings survive suppression (warnings are advisory, as in pre-flight),
1 when errors remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import render_json, render_text
from repro.analysis.findings import Finding
from repro.cli.common import (
    add_telemetry_arguments,
    known_sites,
    positive_int,
    resolve_faults,
    telemetry_session,
)
from repro.core.techniques import TECHNIQUES
from repro.verify import (
    CHECKS,
    default_world,
    load_world,
    resolve_codes,
    verify_world,
)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "verify",
        help="statically verify worlds/plans without running the engine (VER rules)",
    )
    parser.add_argument(
        "worlds", nargs="*", metavar="WORLD",
        help="world fixture JSON files (default: the testbed deployment "
             "at --seed)",
    )
    parser.add_argument(
        "-t", "--techniques", nargs="*", choices=sorted(TECHNIQUES),
        default=None, metavar="TECHNIQUE",
        help="techniques to verify on the default world (default: the "
             "Figure-2 roster plus unicast); ignored for fixture worlds",
    )
    parser.add_argument(
        "--prepend", type=positive_int, default=3,
        help="prepend count for proactive-prepending plans",
    )
    parser.add_argument(
        "-s", "--site", default=None,
        help="specific/intended site for the default world's plans",
    )
    parser.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="fault plan JSON to verify against the default world",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="experiment duration the plans run under (enables "
             "duration-relative checks)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also report opportunity-cost findings (VER212/VER223) "
             "that flag lost control rather than misconfiguration",
    )
    parser.add_argument(
        "-f", "--format", choices=("text", "json"), default="text",
        help="finding report format",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated check codes/names to report (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="CODES",
        help="comma-separated check codes/names to suppress",
    )
    parser.add_argument(
        "--list-checks", action="store_true",
        help="print the check catalogue and exit",
    )
    add_telemetry_arguments(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    if args.list_checks:
        for code, check in CHECKS.items():
            profile = " (strict)" if check.strict_only else ""
            print(f"{code}  {check.name:20s} [{check.severity.value:7s}] "
                  f"{check.summary}{profile}")
        return 0
    try:
        select = resolve_codes(args.select.split(",")) if args.select else None
        ignore = resolve_codes(args.ignore.split(",")) if args.ignore else None
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    missing = [path for path in args.worlds if not Path(path).exists()]
    if missing:
        print(f"no such world(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    with telemetry_session(args):
        if args.worlds:
            try:
                worlds = [load_world(path) for path in args.worlds]
            except ValueError as error:
                print(str(error), file=sys.stderr)
                return 2
        else:
            technique_names = (
                tuple(args.techniques) if args.techniques is not None else None
            )
            worlds = [default_world(
                seed=args.seed,
                technique_names=technique_names,
                prepend=args.prepend,
                specific_site=args.site,
                fault_plan=resolve_faults(args),
                duration=args.duration,
            )]
            if args.site is not None and not known_sites(worlds[0].deployment, [args.site]):
                return 2
        findings: list[Finding] = []
        errors = False
        for world in worlds:
            report = verify_world(
                world, select=select, ignore=ignore, strict=args.strict
            )
            findings.extend(report.findings)
            errors = errors or not report.ok

        if args.format == "json":
            print(render_json(findings))
        else:
            print(f"{len(worlds)} world(s) checked")
            print(render_text(findings))
    return 1 if errors else 0
