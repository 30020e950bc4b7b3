"""``repro workload`` -- inspect a traffic profile without running BGP.

Loads a profile (builtin name or JSON file), runs the PRE14x pre-flight
checks over it, and prints what a run would stream: the rate envelope as
a sparkline, the expected request volume, and optionally the first
arrivals of the exact seed-stable stream an experiment with the same
``--seed`` would consume. The stream digest printed here is the
determinism fingerprint: identical on every machine for the same
(profile, seed, duration) triple.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.findings import Severity
from repro.analysis.preflight import check_run_shape, check_workload
from repro.cli.common import resolve_workload
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment
from repro.workload import RequestStream, stream_digest

#: sparkline glyphs, low to high
_GLYPHS = " ._-=^#"


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "workload", help="inspect a traffic profile (rates, volume, stream)"
    )
    parser.add_argument(
        "profile", nargs="?", default="flash-crowd",
        help="builtin profile name (constant, diurnal, flash-crowd) or a "
             "JSON profile path (default: flash-crowd)",
    )
    parser.add_argument(
        "--duration", type=float, default=300.0,
        help="window to analyse, sim seconds (default 300)",
    )
    parser.add_argument(
        "--sample", type=int, default=0, metavar="N",
        help="also print the first N arrivals of the seed-stable stream",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validation only: exit 2 on PRE14x errors, print nothing else",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the profile as canonical JSON (a valid --workload file)",
    )
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    # resolve_workload reads args.workload; alias the positional onto it.
    args.workload = args.profile
    profile = resolve_workload(args)
    shape = check_run_shape(args.duration)
    findings = shape + check_workload(profile, duration=args.duration)
    for finding in findings:
        print(f"preflight: {finding.format()}", file=sys.stderr)
    errors = [f for f in findings if f.severity is Severity.ERROR]
    if args.check:
        print(f"{profile.name}: {'FAIL' if errors else 'OK'} "
              f"({len(findings)} finding(s))")
        return 2 if errors else 0
    if args.json:
        print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
        return 2 if errors else 0

    print(f"profile {profile.name!r}: base {profile.base_rps:g} rps, "
          f"{len(profile.shapes)} shape(s), zipf_s={profile.zipf_s:g}, "
          f"think={profile.think_time_s:g}s, tick={profile.tick_s:g}s")
    if errors:
        # The rate curve on a malformed profile may raise or mislead.
        print(f"{len(errors)} error(s); "
              f"fix {'--duration' if shape else 'the profile'} before running")
        return 2

    duration = args.duration
    width = 60
    rates = [profile.rate(duration * i / (width - 1)) for i in range(width)]
    top = max(rates) or 1.0
    spark = "".join(
        _GLYPHS[min(len(_GLYPHS) - 1, int(r / top * (len(_GLYPHS) - 1)))]
        for r in rates
    )
    print(f"rate |{spark}| 0..{duration:g}s, peak {top:g} rps")
    print(f"expected requests over {duration:g}s: "
          f"~{profile.expected_requests(duration):,.0f}")

    if args.sample > 0:
        deployment = build_deployment(params=TopologyParams(seed=args.seed))
        clients = [
            info.node_id for info in deployment.topology.web_client_ases()
        ]
        stream = RequestStream(profile, clients, duration, args.seed)
        shown = []
        for request in stream:
            shown.append(request)
            if len(shown) >= args.sample:
                break
        print(f"first {len(shown)} arrival(s) (seed {args.seed}):")
        for request in shown:
            print(f"  t={request.t:9.3f}s  client={request.client:12s} "
                  f"content={request.content}")
        print(f"stream digest (full window): {stream_digest(stream)}")
    return 0
