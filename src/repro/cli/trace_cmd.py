"""``repro trace`` -- work with recorded JSONL traces."""

from __future__ import annotations

import argparse

from repro.cli.common import print_result, read_trace
from repro.telemetry import filter_events, render_summary, summarize_trace


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace", help="inspect a JSONL trace recorded with --trace"
    )
    actions = parser.add_subparsers(dest="trace_command", required=True)
    summarize = actions.add_parser(
        "summarize",
        help="per-phase timings, per-router update counts, probe stats",
    )
    summarize.add_argument("path", help="JSONL trace file (from --trace PATH)")
    summarize.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="routers to list in the top-senders table",
    )
    summarize.add_argument(
        "--prefix", default=None, metavar="P",
        help="only events carrying this prefix (e.g. 184.164.254.0/24)",
    )
    summarize.add_argument(
        "--site", default=None, metavar="S",
        help="only events naming this site (catchment shifts match either end)",
    )
    summarize.add_argument(
        "--kind", default=None, metavar="K",
        help="only events of this kind (e.g. bgp_update_sent, probe_lost)",
    )
    summarize.set_defaults(func=run_summarize)


def run_summarize(args: argparse.Namespace) -> int:
    events = read_trace(args.path)
    if events is None:
        return 2
    filters = {
        "prefix": getattr(args, "prefix", None),
        "site": getattr(args, "site", None),
        "kind": getattr(args, "kind", None),
    }
    header = ""
    if any(value is not None for value in filters.values()):
        before = len(events)
        events = filter_events(events, **filters)
        scope = ", ".join(
            f"{name}={value}" for name, value in filters.items() if value is not None
        )
        header = f"filtered to {len(events)} of {before} events ({scope})\n"
    summary = summarize_trace(events)
    print_result(header + render_summary(summary, top=args.top))
    return 0
