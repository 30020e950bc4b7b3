"""``repro explain`` / ``repro report`` / ``repro profile``.

The observability trio on top of a recorded run:

* ``explain`` reconstructs causal chains (root action -> withdrawals ->
  re-selection -> FIB installs -> DNS/catchment shift) from a trace;
* ``report`` folds probe events into the availability ledger
  (user-seconds lost per technique, classified blackhole / loop /
  wrong-site);
* ``profile`` renders a ``--profile PATH`` JSON (per-event-kind wall
  time and phase sim-vs-wall breakdown).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli.common import claim_output, print_result, read_trace
from repro.obs import (
    AvailabilityLedger,
    explain,
    render_explanation,
    render_profile,
    render_report,
)


def register(subparsers) -> None:
    explain_parser = subparsers.add_parser(
        "explain",
        help="reconstruct causal chains from a trace (why did routing change?)",
    )
    explain_parser.add_argument("path", help="JSONL trace file (from --trace PATH)")
    explain_parser.add_argument(
        "--prefix", default=None, metavar="P",
        help="only chains that moved this prefix (e.g. 184.164.254.0/24)",
    )
    explain_parser.add_argument(
        "--site", default=None, metavar="S",
        help="only chains rooted at, failing, or shifting catchment for this site",
    )
    explain_parser.set_defaults(func=run_explain)

    report_parser = subparsers.add_parser(
        "report",
        help="availability ledger: user-seconds lost per technique, classified",
    )
    report_parser.add_argument("path", help="JSONL trace file (from --trace PATH)")
    report_parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help="also write the ledger as canonical JSON to PATH ('-' for stdout)",
    )
    report_parser.set_defaults(func=run_report)

    profile_parser = subparsers.add_parser(
        "profile",
        help="per-event-kind wall-clock attribution (from --profile PATH)",
    )
    profile_parser.add_argument("path", help="profile JSON file (from --profile PATH)")
    profile_parser.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="event kinds to list in the top-cost table",
    )
    profile_parser.set_defaults(func=run_profile)


def run_explain(args: argparse.Namespace) -> int:
    events = read_trace(args.path)
    if events is None:
        return 2
    chains = explain(events, prefix=args.prefix, site=args.site)
    print_result(render_explanation(chains, prefix=args.prefix, site=args.site))
    # No matching chain is a finding in itself (and lets CI assert the
    # opposite cheaply): exit nonzero so scripts can branch on it.
    return 0 if chains else 1


def run_report(args: argparse.Namespace) -> int:
    events = read_trace(args.path)
    if events is None:
        return 2
    if args.json_path not in (None, "-"):
        claim_output(args.json_path, "ledger")
    ledger = AvailabilityLedger.from_events(events)
    if args.json_path == "-":
        sys.stdout.write(ledger.to_json())
    else:
        print_result(render_report(ledger))
        if args.json_path is not None:
            with open(args.json_path, "w") as handle:
                handle.write(ledger.to_json())
    return 0


def run_profile(args: argparse.Namespace) -> int:
    try:
        with open(args.path) as handle:
            state = json.load(handle)
    except FileNotFoundError:
        print(f"no such profile file: {args.path}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"unreadable profile: {error}", file=sys.stderr)
        return 2
    if not isinstance(state, dict) or "callbacks" not in state:
        print(f"not a profile file (missing 'callbacks'): {args.path}", file=sys.stderr)
        return 2
    print_result(render_profile(state, top=args.top))
    return 0
