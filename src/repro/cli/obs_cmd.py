"""``repro explain`` / ``repro report`` / ``repro profile``.

The observability trio on top of a recorded run:

* ``explain`` reconstructs causal chains (root action -> withdrawals ->
  re-selection -> FIB installs -> DNS/catchment shift) from a trace;
* ``report`` folds probe events into the availability ledger
  (user-seconds lost per technique, classified blackhole / loop /
  wrong-site);
* ``profile`` renders a ``--profile PATH`` JSON (per-event-kind wall
  time and the phase table ``trace summarize`` prints too).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli.common import (
    TRACE_FILE,
    Command,
    Flag,
    Prologue,
    claim_output,
    non_negative_int,
    print_result,
    read_trace,
)
from repro.obs import (
    AvailabilityLedger,
    explain,
    render_explanation,
    render_profile,
    render_report,
)


def run_explain(args: argparse.Namespace, ctx: Prologue) -> int:
    events = read_trace(args.path)
    chains = explain(events, prefix=args.prefix, site=args.site)
    print_result(render_explanation(chains, prefix=args.prefix, site=args.site))
    # No matching chain is a finding in itself (and lets CI assert the
    # opposite cheaply): exit nonzero so scripts can branch on it.
    return 0 if chains else 1


def run_report(args: argparse.Namespace, ctx: Prologue) -> int:
    events = read_trace(args.path)
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


def run_profile(args: argparse.Namespace, ctx: Prologue) -> int:
    try:
        with open(args.path) as handle:
            state = json.load(handle)
        if not isinstance(state, dict) or "callbacks" not in state:
            print(f"not a profile file (missing 'callbacks'): {args.path}", file=sys.stderr)
            return 2
        # Read through the profiler's own fold: a malformed table is a ValueError.
        report = render_profile(state, top=args.top)
    except FileNotFoundError:
        print(f"no such profile file: {args.path}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"unreadable profile: {error}", file=sys.stderr)
        return 2
    print_result(report)
    return 0


EXPLAIN = Command(
    "explain", "reconstruct causal chains from a trace (why did routing change?)",
    run_explain, flags=(
        TRACE_FILE,
        Flag("--prefix", default=None, metavar="P",
             help="only chains that moved this prefix (e.g. 184.164.254.0/24)"),
        Flag("--site", default=None, metavar="S",
             help="only chains rooted at, failing, or shifting catchment for this site"),
    ),
)
REPORT = Command(
    "report", "availability ledger: user-seconds lost per technique, classified",
    run_report, flags=(
        TRACE_FILE,
        Flag("--json", default=None, metavar="PATH", dest="json_path",
             help="also write the ledger as canonical JSON to PATH ('-' for stdout)"),
    ),
)
PROFILE = Command(
    "profile", "per-event-kind wall-clock attribution (from --profile PATH)",
    run_profile, flags=(
        Flag("path", help="profile JSON file (from --profile PATH)"),
        Flag("--top", type=non_negative_int, default=15, metavar="N",
             help="event kinds to list in the top-cost table"),
    ),
)
