"""``repro trace`` -- work with recorded JSONL traces."""

from __future__ import annotations

import argparse

from repro.cli.common import (
    TRACE_FILE,
    Command,
    Flag,
    Prologue,
    non_negative_int,
    print_result,
    read_trace,
)
from repro.telemetry import filter_events, render_summary, summarize_trace

SUMMARIZE = (
    TRACE_FILE,
    Flag("--top", type=non_negative_int, default=10, metavar="N",
         help="routers to list in the top-senders table"),
    Flag("--prefix", default=None, metavar="P",
         help="only events carrying this prefix (e.g. 184.164.254.0/24)"),
    Flag("--site", default=None, metavar="S",
         help="only events naming this site (catchment shifts match either end)"),
    Flag("--kind", default=None, metavar="K",
         help="only events of this kind (e.g. bgp_update_sent, probe_lost)"),
)


def _actions(parser) -> None:
    """``trace``'s one action, ``summarize``."""
    summarize = parser.add_subparsers(dest="trace_command", required=True).add_parser(
        "summarize", help="per-phase timings, per-router update counts, probe stats",
    )
    for flag in SUMMARIZE:
        flag(summarize)


def run_summarize(args: argparse.Namespace, ctx: Prologue) -> int:
    events = read_trace(args.path)
    filters = {"prefix": args.prefix, "site": args.site, "kind": args.kind}
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


COMMAND = Command(
    "trace", "inspect a JSONL trace recorded with --trace", run_summarize, flags=(_actions,),
)
